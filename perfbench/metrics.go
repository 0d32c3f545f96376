package main

import (
	"context"
	"runtime"
	"time"

	"grover/internal/telemetry"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract; BENCHMARK.json must list the same names
// and units (benchmark_test.go checks it).
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of each workload sees, reported with tracing
// off. Every workload reports every one of them: what an "operation" is
// differs per workload (README.md).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"launch_geomean_ms", "ms"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"max_qps", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced run's ledger. Layers a workload does not
// exercise report 0.
var perLayer = []metricDef{
	{"clc.ms", "ms"},
	{"clc.tokens", "count"},
	{"lower.ms", "ms"},
	{"lower.ir_instrs", "count"},
	{"opt.ms", "ms"},
	{"opt.ir_instrs", "count"},
	{"grover.ms", "ms"},
	{"rewrite.ms", "ms"},
	{"analysis.ms", "ms"},
	{"vm.prepare_ms", "ms"},
	{"bcode.compile_ms", "ms"},
	{"wgvec.compile_ms", "ms"},
	{"jit.compile_ms", "ms"},
	{"apps.setup_ms", "ms"},
	{"exec.traced_s", "s"},
	{"exec.bcode.launch_geomean_ms", "ms"},
	{"exec.wgvec.launch_geomean_ms", "ms"},
	{"exec.jit.launch_geomean_ms", "ms"},
	{"exec.allocs_per_launch", "count"},
	{"exec.instrs", "count"},
	{"trace.delivery_s", "s"},
	{"trace.events", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"device.gpu_sim_s", "s"},
	{"device.cpu_sim_s", "s"},
	{"device.sim_ns_per_event", "ns"},
	{"device.cycles", "count"},
	{"device.transactions", "count"},
	{"memsim.accesses", "count"},
	{"memsim.dram_accesses", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"alloc_mb", "MB"},
	{"kcache.hit_ratio", "ratio"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.compile.p99_ms", "ms"},
	{"service.lint.p99_ms", "ms"},
	{"service.transform.p99_ms", "ms"},
	{"service.autotune.p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"unattributed_s", "s"},
	{"fail_ratio", "ratio"},
}

// metrics collects one run's values by name.
type metrics map[string]float64

// ledger times calls into the program's layers from outside it. Each call
// becomes a span in one in-memory telemetry trace, so the whole traced run
// can be written out as a standard trace export. A nil ledger (tracing
// off) runs the calls untimed.
type ledger struct {
	ctx   context.Context
	trace *telemetry.Trace
	// served holds the traces the program recorded itself for requests
	// it served (service), exported with the ledger's own.
	served []telemetry.TraceExport
}

func newLedger() *ledger {
	ctx, tr := telemetry.WithTrace(context.Background())
	return &ledger{ctx: ctx, trace: tr}
}

// context is the context to hand the program's *Ctx entry points: with a
// ledger, they record their own spans into its trace.
func (l *ledger) context() context.Context {
	if l == nil {
		return context.Background()
	}
	return l.ctx
}

// do runs f as one span of the named layer.
func (l *ledger) do(layer string, f func() error) error {
	_, err := l.timed(layer, f)
	return err
}

// timed is do that also returns the call's duration, measured whether or
// not tracing is on.
func (l *ledger) timed(layer string, f func() error) (time.Duration, error) {
	end := func() {}
	if l != nil {
		end = telemetry.StartSpan(l.ctx, layer)
	}
	start := time.Now()
	err := f()
	d := time.Since(start)
	end()
	return d, err
}

// count adds n to a per-layer counter; a no-op with tracing off.
func (l *ledger) count(m metrics, name string, n int) {
	if l != nil {
		m[name] += float64(n)
	}
}

// totals sums span durations per layer, the served requests' spans
// included.
func (l *ledger) totals() map[string]time.Duration {
	out := map[string]time.Duration{}
	if l == nil {
		return out
	}
	for _, s := range l.trace.Spans() {
		out[s.Name] += s.Dur
	}
	for _, t := range l.served {
		for _, s := range t.Spans {
			out[s.Name] += time.Duration(s.DurMS * float64(time.Millisecond))
		}
	}
	return out
}

// gcSnapshot brackets a phase to report the collector's work during it.
type gcSnapshot struct{ ms runtime.MemStats }

func takeGC() gcSnapshot {
	var s gcSnapshot
	runtime.ReadMemStats(&s.ms)
	return s
}

// since fills gc.cycles, gc.pause_ms and alloc_mb for the phase since s.
func (s gcSnapshot) since(m metrics) (mallocs uint64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m["gc.cycles"] = float64(now.NumGC - s.ms.NumGC)
	m["gc.pause_ms"] = float64(now.PauseTotalNs-s.ms.PauseTotalNs) / 1e6
	m["alloc_mb"] = float64(now.TotalAlloc-s.ms.TotalAlloc) / (1 << 20)
	return now.Mallocs - s.ms.Mallocs
}
