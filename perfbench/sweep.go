package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"grover/internal/apps"
	"grover/internal/device"
	"grover/internal/harness"
	"grover/internal/ir"
	"grover/internal/vm"
	"grover/opencl"
)

// The paper's sweeps run on bcode, the fastest engine on the traced path.
const sweepBackend = "bcode"

// A cheap case, one that takes under cheapShare of a pass, is run until
// it has minSamples launches of each version, whatever the budget.
const (
	cheapShare = 0.02
	minSamples = 5
)

// golden.json holds every sweep case's simulated times and verdict as the
// interp reference engine produced them (perfbench -write-golden).
//
//go:embed golden.json
var goldenJSON []byte

// goldenCase is one (app, device) case of a paper sweep.
type goldenCase struct {
	WithLMMS        float64 `json:"with_lm_ms"`
	WithoutLMMS     float64 `json:"without_lm_ms"`
	WithLMCycles    int64   `json:"with_lm_cycles"`
	WithoutLMCycles int64   `json:"without_lm_cycles"`
	Verdict         string  `json:"verdict"`
}

// goldenFile maps sweep name → "APP@DEVICE" → case.
type goldenFile map[string]map[string]goldenCase

// sweepSpec lists a sweep's (app, device) cases in the paper's order.
func sweepSpec(name string) ([][2]string, error) {
	var out [][2]string
	switch name {
	case "fig2":
		for _, id := range []string{"NVD-MT", "NVD-MM-A"} {
			for _, p := range device.All() {
				out = append(out, [2]string{id, p.Name})
			}
		}
	case "fig10":
		for _, a := range apps.All() {
			for _, p := range device.CPUs() {
				out = append(out, [2]string{a.ID, p.Name})
			}
		}
	default:
		return nil, fmt.Errorf("no sweep %q", name)
	}
	return out, nil
}

// sweepCase is one prepared case: both kernel versions compiled with
// their executors built and inputs generated.
type sweepCase struct {
	key   string
	app   *apps.App
	prof  *device.Profile
	ctx   *opencl.Context
	progs [2]*vm.Program
	inst  *apps.Instance
	cfg   vm.Config
}

// setupSweep prepares every case and runs one untraced warm-up launch
// per kernel, so first-launch work lands in set-up.
func setupSweep(l *ledger, m metrics, spec [][2]string, backend string) ([]*sweepCase, error) {
	plat := opencl.NewPlatform()
	var cases []*sweepCase
	for _, s := range spec {
		app, err := apps.ByID(s[0])
		if err != nil {
			return nil, err
		}
		dev, err := plat.DeviceByName(s[1])
		if err != nil {
			return nil, err
		}
		c := &sweepCase{key: s[0] + "@" + s[1], app: app, prof: dev.CostModel(), ctx: opencl.NewContext(dev)}
		if c.progs, err = compileApp(l, m, c.ctx, app, backend); err != nil {
			return nil, err
		}
		err = l.do("apps.setup", func() (err error) { c.inst, err = app.Setup(c.ctx, 1); return err })
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", c.key, err)
		}
		args, err := opencl.VMArgs(c.inst.Args...)
		if err != nil {
			return nil, err
		}
		c.cfg = vm.Config{GlobalSize: c.inst.ND.Global, LocalSize: c.inst.ND.Local, Args: args, Backend: backend}
		// A warm-up launch of one work-group runs every lazy first-launch
		// path without paying for the whole NDRange; the timed launches
		// overwrite what it wrote.
		warm := c.cfg
		warm.GlobalSize = warm.LocalSize
		for _, p := range c.progs {
			err := l.do("exec.warmup", func() error {
				return p.Launch(app.Kernel, warm, c.ctx.Mem(), &vm.LaunchOpts{Workers: c.prof.Cores})
			})
			if err != nil {
				return nil, fmt.Errorf("%s: warm-up: %w", c.key, err)
			}
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// launch runs kernel version k with one worker per simulated core, the
// way the simulator schedules it, feeding tracers from tracerFor (nil:
// untraced).
func (c *sweepCase) launch(k int, tracerFor func(int) vm.Tracer) error {
	return c.progs[k].Launch(c.app.Kernel, c.cfg, c.ctx.Mem(),
		&vm.LaunchOpts{Workers: c.prof.Cores, TracerFor: tracerFor})
}

// simulate runs kernel version k through a device simulator, as a
// profiling queue does. Like the harness, a case makes one simulator for
// its two launches; keeping them across cases would hold every GPU
// simulator's access buffers at once.
func (c *sweepCase) simulate(sim *device.Simulator, k int) (device.Result, error) {
	sim.Reset()
	if err := c.progs[k].Launch(c.app.Kernel, c.cfg, c.ctx.Mem(), sim.Opts()); err != nil {
		return device.Result{}, err
	}
	return sim.Result(), nil
}

// verdict classifies a case at the paper's 5% threshold.
func verdict(withLM, withoutLM float64) string {
	m := harness.Measurement{NP: withLM / withoutLM}
	return m.Classify().String()
}

// caseRun is one simulated run of a case's two versions.
type caseRun struct {
	wall   time.Duration // simulator set-up and both launches
	launch [2]time.Duration
	res    [2]device.Result
}

// runCase simulates both versions of a case once, checks each launch's
// output with the app's host reference (untimed) and the case against
// its golden entry, and tallies failures. It collects garbage first,
// untimed, so that a case's time does not depend on what the cases
// before it in the seeded order left on the heap.
func runCase(c *sweepCase, gold map[string]goldenCase, t *tally) caseRun {
	var r caseRun
	runtime.GC()
	start := time.Now()
	sim, err := device.NewSimulator(c.prof)
	r.wall = time.Since(start)
	if t.fail(err, c.key) {
		return r
	}
	ok := true
	for k := 0; k < 2; k++ {
		start := time.Now()
		res, err := c.simulate(sim, k)
		r.launch[k] = time.Since(start)
		r.wall += r.launch[k]
		r.res[k] = res
		t.attempted++
		if err == nil {
			err = c.inst.Check()
		}
		if t.fail(err, c.key) {
			ok = false
		}
	}
	g, found := gold[c.key]
	simMS := [2]float64{r.res[0].TimeMS, r.res[1].TimeMS}
	cycles := [2]int64{r.res[0].Cycles, r.res[1].Cycles}
	switch {
	case !found:
		t.fail(fmt.Errorf("no golden entry"), c.key)
	case !ok:
	case simMS[0] != g.WithLMMS || simMS[1] != g.WithoutLMMS ||
		cycles[0] != g.WithLMCycles || cycles[1] != g.WithoutLMCycles ||
		verdict(simMS[0], simMS[1]) != g.Verdict:
		t.fail(fmt.Errorf("simulated %v ms / %v cycles (%s), golden %v / %v ms, %v / %v cycles (%s)",
			simMS, cycles, verdict(simMS[0], simMS[1]), g.WithLMMS, g.WithoutLMMS,
			g.WithLMCycles, g.WithoutLMCycles, g.Verdict), c.key)
	}
	return r
}

// runPass runs every case once in a seeded order. It returns the
// summed case time and each case's run, by case index.
func runPass(cases []*sweepCase, gold map[string]goldenCase, rng *rand.Rand, t *tally) (time.Duration, []caseRun) {
	var wall time.Duration
	runs := make([]caseRun, len(cases))
	for _, ci := range rng.Perm(len(cases)) {
		runs[ci] = runCase(cases[ci], gold, t)
		wall += runs[ci].wall
	}
	return wall, runs
}

// runSweep is the fig2 and fig10 workload: the paper's traced sweep on
// bcode, every case checked against the golden file.
func runSweep(name string, o opts) (*outcome, error) {
	spec, err := sweepSpec(name)
	if err != nil {
		return nil, err
	}
	var gold goldenFile
	if err := json.Unmarshal(goldenJSON, &gold); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	rng := rand.New(rand.NewSource(o.seed))
	out := newOutcome()
	if o.trace {
		return traceSweep(name, spec, gold[name], rng, o, out)
	}
	cases, setupS, err := repeatSetup(func() ([]*sweepCase, error) {
		return setupSweep(nil, nil, spec, sweepBackend)
	}, nil)
	if err != nil {
		return nil, err
	}
	// Whole passes run while one more fits in the budget; wall_s and
	// max_qps come from them.
	start := time.Now()
	var walls []float64
	var last []caseRun
	perSlot := make([][]float64, 2*len(cases))
	add := func(ci int, r caseRun) {
		for k := 0; k < 2; k++ {
			perSlot[2*ci+k] = append(perSlot[2*ci+k], ms(r.launch[k]))
		}
	}
	for len(walls) == 0 || fits(start, time.Duration(walls[len(walls)-1]*float64(time.Second)), o.seconds) {
		wall, runs := runPass(cases, gold[name], rng, &out.tally)
		walls = append(walls, wall.Seconds())
		for ci, r := range runs {
			add(ci, r)
		}
		last = runs
	}
	// Then the cheap cases, whose single launches are the noisiest
	// samples, run until each has minSamples. The budget left after that
	// goes to rounds over the cases, cheapest first, each round as far as
	// the budget reaches.
	order := rng.Perm(len(cases))
	sort.SliceStable(order, func(i, j int) bool { return last[order[i]].wall < last[order[j]].wall })
	pass := time.Duration(median(walls) * float64(time.Second))
	for _, ci := range order {
		if float64(last[ci].wall) > cheapShare*float64(pass) {
			break
		}
		for len(perSlot[2*ci]) < minSamples {
			add(ci, runCase(cases[ci], gold[name], &out.tally))
		}
	}
	for fits(start, last[order[0]].wall, o.seconds) {
		for _, ci := range order {
			if !fits(start, last[ci].wall, o.seconds) {
				break
			}
			add(ci, runCase(cases[ci], gold[name], &out.tally))
		}
	}
	slotMedians := make([]float64, len(perSlot))
	for i, s := range perSlot {
		slotMedians[i] = median(s)
	}
	var passSum float64
	for _, w := range walls {
		passSum += w
	}
	out.m["wall_s"] = median(walls)
	out.m["launch_geomean_ms"] = geomean(slotMedians)
	out.m["p50_ms"] = median(slotMedians)
	out.m["p99_ms"] = tail(slotMedians)
	out.m["max_qps"] = float64(len(walls)*len(perSlot)) / passSum
	out.m["setup_s"] = setupS
	return out, nil
}

// traceSweep is the traced run of a sweep. After a traced set-up it runs
// one end-to-end pass exactly as the untraced run does, then times every
// launch three ways: with no tracer (execution alone, same worker count),
// with a tracer that only counts events (execution plus trace delivery)
// and with the simulator. The differences give trace delivery and
// simulator self time; the simulated cycles must equal the end-to-end
// pass's.
func traceSweep(name string, spec [][2]string, gold map[string]goldenCase, rng *rand.Rand, o opts, out *outcome) (*outcome, error) {
	l := newLedger()
	m := out.m
	scope := time.Now()
	cases, err := setupSweep(l, m, spec, sweepBackend)
	if err != nil {
		return nil, err
	}
	scopeWall := time.Since(scope)

	gc := takeGC()
	e2eWall, e2e := runPass(cases, gold, rng, &out.tally)
	gc.since(m)
	for _, run := range e2e {
		for _, r := range run.res {
			m["device.cycles"] += float64(r.Cycles)
			m["device.transactions"] += float64(r.Transactions)
			m["exec.instrs"] += float64(r.Instrs)
			m["memsim.dram_accesses"] += float64(r.DRAMAccesses)
			for _, lvl := range r.Caches {
				m["memsim.accesses"] += float64(lvl.Accesses)
			}
		}
	}

	scope = time.Now()
	var execMS []float64
	var mallocs uint64
	var events int64
	for _, ci := range rng.Perm(len(cases)) {
		c := cases[ci]
		_ = l.do("gc", func() error { runtime.GC(); return nil }) // as runCase does
		sim, err := device.NewSimulator(c.prof)
		if out.fail(err, c.key) {
			continue
		}
		kind := "cpu"
		if c.prof.Kind == device.GPUKind {
			kind = "gpu"
		}
		for k := 0; k < 2; k++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := l.timed("exec."+kind, func() error { return c.launch(k, nil) })
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			if out.fail(err, c.key) {
				continue
			}
			execMS = append(execMS, ms(d))
			counters := make([]countTracer, c.prof.Cores)
			err = l.do("trace."+kind, func() error {
				return c.launch(k, func(w int) vm.Tracer { return &counters[w] })
			})
			if out.fail(err, c.key) {
				continue
			}
			for _, ct := range counters {
				events += ct.events
			}
			var r device.Result
			err = l.do("device."+kind, func() (err error) { r, err = c.simulate(sim, k); return err })
			if out.fail(err, c.key) {
				continue
			}
			if want := e2e[ci].res[k].Cycles; r.Cycles != want {
				out.fail(fmt.Errorf("traced run simulated %d cycles, end-to-end run %d", r.Cycles, want), c.key)
			}
		}
	}
	tracedWall := time.Since(scope)
	scopeWall += tracedWall
	if len(execMS) > 0 {
		m["exec.allocs_per_launch"] = float64(mallocs) / float64(len(execMS))
	}

	tot := l.totals()
	sec := func(name string) float64 { return tot[name].Seconds() }
	m["exec.traced_s"] = sec("exec.gpu") + sec("exec.cpu")
	m["trace.delivery_s"] = sec("trace.gpu") + sec("trace.cpu") - m["exec.traced_s"]
	m["trace.events"] = float64(events)
	m["device.gpu_sim_s"] = sec("device.gpu") - sec("trace.gpu")
	m["device.cpu_sim_s"] = sec("device.cpu") - sec("trace.cpu")
	if events > 0 {
		m["device.sim_ns_per_event"] = (m["device.gpu_sim_s"] + m["device.cpu_sim_s"]) * 1e9 / float64(events)
	}
	m["exec.bcode.launch_geomean_ms"] = geomean(execMS)
	m["trace.overhead_ratio"] = tracedWall.Seconds() / e2eWall.Seconds()
	out.ledger(l, scopeWall)
	return out, nil
}

// countTracer counts trace events and retired instructions and does
// nothing else, so a launch with it costs execution plus delivery.
type countTracer struct{ events, instrs int64 }

func (c *countTracer) GroupBegin([3]int, int)                   { c.events++ }
func (c *countTracer) Access(*ir.Instr, int, uint64, int, bool) { c.events++ }
func (c *countTracer) Barrier(int)                              { c.events++ }
func (c *countTracer) Instrs(_ int, n int64)                    { c.events++; c.instrs += n }
func (c *countTracer) GroupEnd()                                { c.events++ }
