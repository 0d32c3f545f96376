package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"grover/internal/jit"
)

// benchmarkFile mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

// TestBenchmarkFile checks BENCHMARK.json's shape and that it names the
// same metrics, with the same units, as the program reports.
func TestBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is invalid or used twice", n)
		}
		seen[n] = true
	}
	var wl []string
	for _, w := range b.Workloads {
		checkName(w.Name)
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(want)
	sort.Strings(wl)
	if !reflect.DeepEqual(wl, want) {
		t.Errorf("workloads %v, program runs %v", wl, want)
	}

	units := map[string]string{}
	for _, m := range b.EndToEnd {
		checkName(m.Name)
		units[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	var setupBound, maxBound float64
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s needs the largest bound, has %v of %v", setupBound, maxBound)
	}
	for _, m := range b.PerLayer {
		checkName(m.Name)
		units[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for n, u := range units {
		if !unitRE.MatchString(u) {
			t.Errorf("%s: unit %q", n, u)
		}
	}
	for _, tc := range []struct {
		kind string
		defs []metricDef
		n    int
	}{{"end_to_end", endToEnd, len(b.EndToEnd)}, {"per_layer", perLayer, len(b.PerLayer)}} {
		if tc.n != len(tc.defs) {
			t.Errorf("%s lists %d metrics, program reports %d", tc.kind, tc.n, len(tc.defs))
		}
		for _, d := range tc.defs {
			if units[d.name] != d.unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, program %q", tc.kind, d.name, units[d.name], d.unit)
			}
		}
	}
}

// TestWorkloadWhy checks that each workload records which per-layer
// metrics it serves and the end-to-end metrics they should move, written
// as "layer metrics -> end-to-end metrics".
func TestWorkloadWhy(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		layers, e2e, ok := strings.Cut(w.Why, "->")
		if !ok {
			t.Errorf("%s: why has no layer -> end-to-end mapping: %q", w.Name, w.Why)
			continue
		}
		if !mentions(layers, perLayer) {
			t.Errorf("%s: mapping names no per-layer metric: %q", w.Name, layers)
		}
		if !mentions(e2e, endToEnd) {
			t.Errorf("%s: mapping names no end-to-end metric: %q", w.Name, e2e)
		}
	}
}

func mentions(s string, defs []metricDef) bool {
	for _, d := range defs {
		if strings.Contains(s, d.name) {
			return true
		}
	}
	return false
}

// zeroEverywhere are the per-layer metrics that read 0 on every workload
// of a correct run.
var zeroEverywhere = map[string]bool{"fail_ratio": true}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that it is correct and reports every metric BENCHMARK.json names, and
// that every per-layer metric but those in zeroEverywhere is measured,
// non-zero, on at least one workload.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; takes a few minutes")
	}
	jit.SetNative(false)
	measured := map[string]bool{}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			o := opts{workload: name, seed: 7, seconds: 0.5, trace: trace}
			out, err := workloads[name](o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res, err := report(o, out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, trace, res.Correct, res.Attempted, res.Failed, out.errs)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: no %s", name, trace, d.name)
				} else if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, v.Value)
				} else if trace && v.Value != 0 {
					measured[d.name] = true
				}
			}
			if trace && name == "fig2" {
				checkFig2Ledger(t, res)
			}
			if trace && name == "fig10" && res.Metrics["device.gpu_sim_s"].Value != 0 {
				t.Errorf("fig10 ledger: device.gpu_sim_s = %v, want 0", res.Metrics["device.gpu_sim_s"].Value)
			}
		}
	}
	for _, d := range perLayer {
		if !measured[d.name] && !zeroEverywhere[d.name] {
			t.Errorf("per-layer %s is 0 on every workload", d.name)
		}
	}
}

// checkFig2Ledger checks the split the GPU-simulator work relies on: on
// fig2 the simulator's GPU model is the largest timed layer.
func checkFig2Ledger(t *testing.T, res *result) {
	gpu := res.Metrics["device.gpu_sim_s"].Value
	for _, other := range []string{"exec.traced_s", "trace.delivery_s", "device.cpu_sim_s", "unattributed_s"} {
		if v := res.Metrics[other].Value; v >= gpu {
			t.Errorf("fig2 ledger: %s = %v s is not below device.gpu_sim_s = %v s", other, v, gpu)
		}
	}
	for metric := range res.Metrics {
		if strings.HasSuffix(metric, ".ms") || strings.HasSuffix(metric, "_ms") {
			if v := res.Metrics[metric].Value / 1000; v >= gpu && !strings.HasPrefix(metric, "gc.") {
				t.Errorf("fig2 ledger: %s = %v s is not below device.gpu_sim_s = %v s", metric, v, gpu)
			}
		}
	}
}
