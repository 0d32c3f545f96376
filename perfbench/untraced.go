package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"grover/internal/apps"
	"grover/internal/vm"
	"grover/opencl"
)

// Untraced launches run on jit's closure tier, the engine for raw speed.
// The traced run also times the other two compiled engines on the same
// kernels.
const untracedBackend = "jit"

var engineBackends = []string{"bcode", "wgvec", "jit"}

// untracedKernel is one of the 22 kernels: an app's base or Grover
// version. Both versions of an app share its inputs.
type untracedKernel struct {
	name string
	app  *apps.App
	prog *vm.Program
	ctx  *opencl.Context
	inst *apps.Instance
	cfg  vm.Config
}

// launch runs the kernel with no tracer on the given backend.
func (k *untracedKernel) launch(backend string) error {
	cfg := k.cfg
	cfg.Backend = backend
	return k.prog.Launch(k.app.Kernel, cfg, k.ctx.Mem(), nil)
}

// warm launches one work-group of the kernel, which runs every lazy
// first-launch path without paying for the whole NDRange; the timed
// launches overwrite what it wrote.
func (k *untracedKernel) warm(backend string) error {
	cfg := k.cfg
	cfg.Backend = backend
	cfg.GlobalSize = cfg.LocalSize
	return k.prog.Launch(k.app.Kernel, cfg, k.ctx.Mem(), nil)
}

// check launches the kernel once and compares its output with the app's
// host reference.
func (k *untracedKernel) check(backend string, t *tally) {
	t.attempted++
	err := k.launch(backend)
	if err == nil {
		err = k.inst.Check()
	}
	t.fail(err, k.name+" on "+backend)
}

// setupUntraced compiles all 11 apps in both versions, builds the named
// backends' executors and generates inputs, then warms every kernel on
// each backend, so first-launch work lands in set-up.
func setupUntraced(l *ledger, m metrics, backends ...string) ([]*untracedKernel, error) {
	dev, err := opencl.NewPlatform().DeviceByName("SNB")
	if err != nil {
		return nil, err
	}
	var ks []*untracedKernel
	for _, app := range apps.All() {
		ctx := opencl.NewContext(dev)
		progs, err := compileApp(l, m, ctx, app, backends...)
		if err != nil {
			return nil, err
		}
		var inst *apps.Instance
		if err := l.do("apps.setup", func() (err error) { inst, err = app.Setup(ctx, 1); return err }); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", app.ID, err)
		}
		args, err := opencl.VMArgs(inst.Args...)
		if err != nil {
			return nil, err
		}
		cfg := vm.Config{GlobalSize: inst.ND.Global, LocalSize: inst.ND.Local, Args: args}
		for v, p := range progs {
			k := &untracedKernel{name: app.ID + []string{"/base", "/grover"}[v], app: app, prog: p, ctx: ctx, inst: inst, cfg: cfg}
			for _, b := range backends {
				if err := l.do("exec.warmup", func() error { return k.warm(b) }); err != nil {
					return nil, fmt.Errorf("%s: warm-up on %s: %w", k.name, b, err)
				}
			}
			ks = append(ks, k)
		}
	}
	return ks, nil
}

// rounds launches every kernel once per round, in a seeded order, until
// the budget is spent (at least one round). It returns each kernel's
// launch times in milliseconds. With a ledger,
// every launch is a span of layer exec.<backend>.
func rounds(l *ledger, ks []*untracedKernel, backend string, rng *rand.Rand, seconds float64, t *tally) [][]float64 {
	perKernel := make([][]float64, len(ks))
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || fits(start, last, seconds); n++ {
		rs := time.Now()
		for _, i := range rng.Perm(len(ks)) {
			k := ks[i]
			t.attempted++
			d, err := l.timed("exec."+backend, func() error { return k.launch(backend) })
			if !t.fail(err, k.name) {
				perKernel[i] = append(perKernel[i], ms(d))
			}
		}
		last = time.Since(rs)
	}
	return perKernel
}

// kernelMedians returns each kernel's median launch time.
func kernelMedians(perKernel [][]float64) []float64 {
	meds := make([]float64, 0, len(perKernel))
	for _, s := range perKernel {
		if len(s) > 0 {
			meds = append(meds, median(s))
		}
	}
	return meds
}

// runUntraced is the untraced workload: base and Grover versions of all
// 11 apps launched over and over on jit with no tracer.
func runUntraced(o opts) (*outcome, error) {
	rng := rand.New(rand.NewSource(o.seed))
	out := newOutcome()
	if o.trace {
		return traceUntraced(rng, o, out)
	}
	ks, setupS, err := repeatSetup(func() ([]*untracedKernel, error) {
		return setupUntraced(nil, nil, untracedBackend)
	}, nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	before := out.attempted
	perKernel := rounds(nil, ks, untracedBackend, rng, o.seconds, &out.tally)
	launches := out.attempted - before
	elapsed := time.Since(start)
	for _, i := range rng.Perm(len(ks)) {
		ks[i].check(untracedBackend, &out.tally)
	}
	// The geometric mean of the kernels' medians keeps the longest
	// kernel from swamping the shortest. The median kernel stands for
	// p50, as a median over all launches would jump between the two
	// middle kernels' extremes; the tail comes from all launches.
	meds := kernelMedians(perKernel)
	var sum float64
	for _, v := range meds {
		sum += v
	}
	var all []float64
	for _, s := range perKernel {
		all = append(all, s...)
	}
	out.m["wall_s"] = sum / 1000
	out.m["launch_geomean_ms"] = geomean(meds)
	out.m["p50_ms"] = median(meds)
	out.m["p99_ms"] = tail(all)
	out.m["max_qps"] = float64(launches) / elapsed.Seconds()
	out.m["setup_s"] = setupS
	return out, nil
}

// traceUntraced is the untraced workload's traced run: a traced set-up
// that builds all three compiled engines, one end-to-end phase on jit as
// the untraced run does it, then every engine timed launch by launch, and
// one launch per kernel with a counting tracer for retired instructions.
func traceUntraced(rng *rand.Rand, o opts, out *outcome) (*outcome, error) {
	l := newLedger()
	m := out.m
	scope := time.Now()
	ks, err := setupUntraced(l, m, engineBackends...)
	if err != nil {
		return nil, err
	}
	scopeWall := time.Since(scope)
	phase := o.seconds / float64(len(engineBackends)+1)

	gc := takeGC()
	before := out.attempted
	perKernel := rounds(nil, ks, untracedBackend, rng, phase, &out.tally)
	mallocs := gc.since(m)
	m["exec.allocs_per_launch"] = float64(mallocs) / float64(out.attempted-before)
	e2eGeo := geomean(kernelMedians(perKernel))

	scope = time.Now()
	for _, b := range engineBackends {
		perKernel := rounds(l, ks, b, rng, phase, &out.tally)
		m["exec."+b+".launch_geomean_ms"] = geomean(kernelMedians(perKernel))
	}
	m["trace.overhead_ratio"] = m["exec."+untracedBackend+".launch_geomean_ms"] / e2eGeo
	for _, k := range ks {
		counters := make([]countTracer, runtime.GOMAXPROCS(0))
		cfg := k.cfg
		cfg.Backend = untracedBackend
		out.attempted++
		err := l.do("exec.count", func() error {
			return k.prog.Launch(k.app.Kernel, cfg, k.ctx.Mem(), &vm.LaunchOpts{
				Workers:   len(counters),
				TracerFor: func(w int) vm.Tracer { return &counters[w] },
			})
		})
		out.fail(err, k.name)
		for _, c := range counters {
			m["exec.instrs"] += float64(c.instrs)
		}
	}
	scopeWall += time.Since(scope)
	for _, b := range engineBackends {
		for _, i := range rng.Perm(len(ks)) {
			ks[i].check(b, &out.tally)
		}
	}
	out.ledger(l, scopeWall)
	return out, nil
}
