// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time and prints, as its last line, one JSON object with the
// run's correctness, operation counts and metrics:
//
//	bash perfbench/run.sh --workload fig2 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// per-layer timing. With --trace 1 it reports the per-layer ledger: it
// times the calls into each layer from outside the program, keeps the
// spans in one in-memory telemetry trace and writes that trace to
// .bench_build/spans/ when it ends. README.md defines every metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"grover/internal/jit"
	"grover/internal/telemetry"
)

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*outcome, error){
	"fig2":     func(o opts) (*outcome, error) { return runSweep("fig2", o) },
	"fig10":    func(o opts) (*outcome, error) { return runSweep("fig10", o) },
	"untraced": runUntraced,
	"service":  runService,
}

// tally counts attempted and failed operations and keeps the first few
// failures for the log.
type tally struct {
	attempted, failed int64
	errs              []string
}

// fail records err (when non-nil) as one failed operation and reports
// whether it did.
func (t *tally) fail(err error, what string) bool {
	if err == nil {
		return false
	}
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, what+": "+err.Error())
	}
	return true
}

// outcome is what a workload run produces.
type outcome struct {
	tally
	m metrics
	// l and scope are the traced run's ledger and the wall time of the
	// phases it covers, for the unattributed remainder.
	l     *ledger
	scope time.Duration
}

func newOutcome() *outcome { return &outcome{m: metrics{}} }

// ledger attaches a traced run's spans. scope is the wall time of the
// phases whose layer calls the spans cover.
func (o *outcome) ledger(l *ledger, scope time.Duration) {
	o.l, o.scope = l, scope
}

// layerMS maps span names to the per-layer time metrics they feed. All
// but analysis and apps.setup are spans the program records itself.
var layerMS = map[string]string{
	"clc.pre":          "clc.ms",
	"clc.lex":          "clc.ms",
	"clc.parse":        "clc.ms",
	"clc.sema":         "clc.ms",
	"lower":            "lower.ms",
	"opt":              "opt.ms",
	"grover.transform": "grover.ms",
	"rewrite.apply":    "rewrite.ms",
	"analysis":         "analysis.ms",
	"vm.prepare":       "vm.prepare_ms",
	"bcode.compile":    "bcode.compile_ms",
	"wgvec.compile":    "wgvec.compile_ms",
	"jit.compile":      "jit.compile_ms",
	"apps.setup":       "apps.setup_ms",
}

// finishLedger turns the spans into per-layer times and the remainder no
// named layer covers.
func (o *outcome) finishLedger() {
	if o.l == nil {
		return
	}
	var covered time.Duration
	for name, d := range o.l.totals() {
		covered += d
		if metric, ok := layerMS[name]; ok {
			o.m[metric] += float64(d) / float64(time.Millisecond)
		}
	}
	o.m["unattributed_s"] = (o.scope - covered).Seconds()
}

// repeatSetup runs a workload's set-up several times and keeps the last
// result; set-up time is the median, so one slow start does not move it.
// drop, when not nil, releases each result but the last, untimed, before
// the next set-up starts. Then the garbage of the set-ups is returned to
// the system and the peak resident set is reset, so that peak_rss_mb
// covers the timed phase only.
func repeatSetup[T any](setup func() (T, error), drop func(T)) (T, float64, error) {
	const reps = 5
	var v T
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 && drop != nil {
			drop(v)
		}
		start := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return v, median(times), resetPeakRSS()
}

// resetPeakRSS collects garbage, returns freed memory to the system and
// resets the kernel's peak resident set size (VmHWM) to the current one.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// fits reports whether one more repetition as long as last still ends
// within the run's budget.
func fits(start time.Time, last time.Duration, seconds float64) bool {
	return time.Since(start)+last <= time.Duration(seconds*float64(time.Second))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report selects the metrics of the run's kind and checks that the
// workload produced every end-to-end one.
func report(o opts, out *outcome) (*result, error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
		out.finishLedger()
		if out.attempted > 0 {
			out.m["fail_ratio"] = float64(out.failed) / float64(out.attempted)
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.m["peak_rss_mb"] = rss
	}
	res := &result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.m[d.name]
		if !ok && !o.trace {
			return nil, fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range out.m {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("workload %s measured %s, which is not one of its metrics", o.workload, name)
		}
	}
	return res, nil
}

// writeSpans writes the traced run's spans as a JSON list of telemetry
// trace exports: the benchmark's own trace, then the traces the program
// recorded for the requests it served.
func writeSpans(o opts, out *outcome) error {
	if out.l == nil {
		return nil
	}
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out.l.trace.SetName("perfbench " + o.workload)
	out.l.trace.Finish()
	raw, err := json.Marshal(append([]telemetry.TraceExport{out.l.trace.Export()}, out.l.served...))
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)), raw, 0o644)
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: fig2, fig10, untraced or service")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer ledger instead of end-to-end metrics")
	golden := flag.String("write-golden", "", "write the sweeps' golden file, produced on interp, to this path and exit")
	flag.Parse()
	o.trace = trace == 1
	// Untraced launches run jit's closure tier: native mode builds plugins
	// per kernel, which ties set-up time to the disk and build caches.
	jit.SetNative(false)

	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fig2|fig10|untraced|service, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	out, err := run(o)
	if err == nil {
		err = writeSpans(o, out)
	}
	var res *result
	if err == nil {
		res, err = report(o, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
