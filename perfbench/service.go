package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"grover/internal/analysis"
	"grover/internal/apps"
	"grover/internal/kcache"
	"grover/internal/service"
	"grover/internal/telemetry"
	"grover/opencl"
)

// The service workload's traffic. Only the seed varies it.
const (
	serviceBackend = "bcode"
	// reuseShare of requests carry one of warmKeys cache keys per
	// (endpoint, app) that set-up has already served, so they only read
	// kcache; the rest carry a fresh key and compile. The share is the
	// one `groverbench -experiment service` offers by default.
	reuseShare = 0.75
	warmKeys   = 2
	// keySlots is how many requests per app a hit-or-miss deck deals
	// before reshuffling; reuseShare of them are hits.
	keySlots = 4
	// keyDefine is the preprocessor define that makes a cache key; the
	// sources never read it.
	keyDefine = "PERFBENCH_KEY"
	// nominalQPS is the offered rate p50_ms and p99_ms are reported at,
	// a fifth or less of what the service sustains on two cores: at
	// higher rates the tail mostly measures how long the host stalls the
	// process. The nominal step takes nominalShare of the run's seconds.
	nominalQPS   = 200.0
	nominalShare = 0.75
	// latencyLimitMS is the p99 a rate step must meet to count for
	// max_qps.
	latencyLimitMS = 50.0
	// minStepRequests puts at least ten samples beyond each step's p99.
	minStepRequests = 1000
	// probeRequests is how many requests a max_qps probe offers.
	probeRequests = 3 * minStepRequests
	// saturateSeconds is how long the closed-loop burst that brackets
	// the max_qps search runs.
	saturateSeconds = 1.5
)

// endpointMix weights the endpoints out of 100 requests. No measured
// traffic stands behind it; it was chosen for steady figures. Compile and
// lint keep the 5:3 ratio of `groverbench -experiment service`, which has
// no transform requests and sends a fifth of its requests to autotune.
// Here autotune requests are two in 100, and each takes about ten times
// a miss of the others, so the top 1% of latencies is the slower half of
// the autotune requests: p99 lands on their median, and a change to the
// tail of the other requests does not show in it.
var endpointMix = []struct {
	name   string
	weight int
}{{"compile", 43}, {"lint", 25}, {"transform", 30}, {"autotune", 2}}

// tuneApps are the light apps autotune requests run, at the small
// geometry below, on one CPU device.
var tuneApps = []string{"NVD-MT", "AMD-RG"}

const tuneN = 128

// svcRequest is one request of the traffic.
type svcRequest struct {
	endpoint string
	app      *apps.App
	local    [3]int
	key      int
	hit      bool
}

// defines returns the app's defines plus the cache-key define.
func (r svcRequest) defines() map[string]string {
	d := map[string]string{keyDefine: strconv.Itoa(r.key)}
	for k, v := range r.app.Defines {
		d[k] = v
	}
	return d
}

// plan reports whether a transform request goes through the rewrite
// engine's "grover" plan rather than the classic pass.
func (r svcRequest) plan() bool { return r.key%2 == 1 }

// body is the request's JSON payload.
func (r svcRequest) body() ([]byte, error) {
	name := r.app.ID + ".cl"
	var v interface{}
	switch r.endpoint {
	case "compile":
		v = &service.CompileRequest{Name: name, Source: r.app.Source, Defines: r.defines()}
	case "lint":
		v = &service.LintRequest{Name: name, Source: r.app.Source, Defines: r.defines(),
			Kernel: r.app.Kernel, Local: r.local}
	case "transform":
		req := &service.TransformRequest{Name: name, Source: r.app.Source, Defines: r.defines(),
			Kernel: r.app.Kernel, Options: service.OptionsSpec{Candidates: r.app.Candidates, Strict: true}}
		if r.plan() {
			req.Plan = "grover"
		}
		v = req
	case "autotune":
		v = &service.AutotuneRequest{Name: name, Source: r.app.Source, Defines: r.defines(),
			Kernel: r.app.Kernel, Device: "SNB",
			Global: [3]int{tuneN, tuneN, 1}, Local: [3]int{16, 16, 1},
			Args: []service.ArgSpec{
				{Kind: "buffer", Size: 4 * tuneN * tuneN}, {Kind: "buffer", Size: 4 * tuneN * tuneN},
				{Kind: "int", Int: tuneN}, {Kind: "int", Int: tuneN},
			},
			Runs: 1}
	default:
		return nil, fmt.Errorf("unknown endpoint %q", r.endpoint)
	}
	return json.Marshal(v)
}

// deck deals ints from a fixed multiset in seeded random order, dealing
// the whole multiset before reshuffling it. Drawing the traffic from
// decks rather than independent draws gives every seed the same mix of
// endpoints, apps and hits, so the seed changes only their order and
// the tail percentiles do not move with it.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

func newDeck(rng *rand.Rand, counts []int) *deck {
	d := &deck{rng: rng}
	for v, n := range counts {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, v)
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) deal() int {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// ones returns n counts of 1: a deck of n distinct cards.
func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// traffic draws the seeded request stream.
type traffic struct {
	rng       *rand.Rand
	endpoints *deck
	pools     [][]*apps.App // per endpoint: the apps its requests name
	// draws deals, per endpoint, app index × keySlots + slot. Slots
	// below hitSlots reuse a warm key, so each app's hits and misses keep
	// the mix's proportions too.
	draws    []*deck
	hitSlots []int
	locals   map[string][3]int
	fresh    int
}

func newTraffic(seed int64) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &traffic{rng: rng, locals: map[string][3]int{}, fresh: warmKeys}
	var weights []int
	for _, e := range endpointMix {
		weights = append(weights, e.weight)
	}
	t.endpoints = newDeck(rng, weights)
	var tune []*apps.App
	for _, id := range tuneApps {
		a, err := apps.ByID(id)
		if err != nil {
			return nil, err
		}
		tune = append(tune, a)
	}
	for _, e := range endpointMix {
		pool, hits := apps.All(), int(math.Round(reuseShare*keySlots))
		if e.name == "autotune" {
			pool, hits = tune, 0
		}
		t.pools = append(t.pools, pool)
		t.draws = append(t.draws, newDeck(rng, ones(keySlots*len(pool))))
		t.hitSlots = append(t.hitSlots, hits)
	}
	// Lint requests declare each app's own work-group size; nothing
	// launches on the context that sizes them.
	dev, err := opencl.NewPlatform().DeviceByName("SNB")
	if err != nil {
		return nil, err
	}
	ctx := opencl.NewContext(dev)
	for _, a := range apps.All() {
		inst, err := a.Setup(ctx, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.ID, err)
		}
		t.locals[a.ID] = inst.ND.Local
	}
	return t, nil
}

// next draws one request. Autotune requests always miss: each one's
// timed launches are what a user of the endpoint waits for.
func (t *traffic) next() svcRequest {
	e := t.endpoints.deal()
	r := svcRequest{endpoint: endpointMix[e].name}
	v := t.draws[e].deal()
	r.app = t.pools[e][v/keySlots]
	r.local = t.locals[r.app.ID]
	if v%keySlots < t.hitSlots[e] {
		r.key, r.hit = t.rng.Intn(warmKeys), true
	} else {
		r.key = t.fresh
		t.fresh++
	}
	return r
}

// warm lists every request the hits can name, and warms autotune.
func (t *traffic) warm() []svcRequest {
	var out []svcRequest
	for e, pool := range t.pools {
		for _, a := range pool {
			for k := 0; k < warmKeys; k++ {
				out = append(out, svcRequest{endpoint: endpointMix[e].name, app: a, local: t.locals[a.ID], key: k, hit: true})
			}
		}
	}
	return out
}

// encoded is a request with its payload built ahead of the timed phase.
type encoded struct {
	svcRequest
	payload []byte
}

func (t *traffic) draw(n int) ([]encoded, error) {
	out := make([]encoded, n)
	for i := range out {
		r := t.next()
		p, err := r.body()
		if err != nil {
			return nil, err
		}
		out[i] = encoded{r, p}
	}
	return out, nil
}

// svc is an in-process groverd. Requests go straight to its HTTP handler,
// so latency is the service's own, not the loopback network stack's; at
// most callers requests are in flight, one per processor. The server's
// pool has one slot fewer than there are callers (when there are two or
// more), so requests do wait in its queue. Its queue bound is one more
// than can ever wait, so it sheds nothing the workload offers: a shed
// request would be a failure.
type svc struct {
	srv     *service.Server
	callers int
}

// startService starts the server and serves every warm request once, so
// that reused keys hit kcache in the timed phase.
func startService(warm []svcRequest) (*svc, error) {
	callers := runtime.GOMAXPROCS(0)
	workers := max(1, callers-1)
	s := &svc{
		srv: service.New(service.Config{
			Backend: serviceBackend, Workers: workers, MaxQueue: callers - workers + 1, Version: "perfbench",
		}),
		callers: callers,
	}
	for _, r := range warm {
		p, err := r.body()
		if err == nil {
			err = s.post(r.endpoint, p)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm %s %s: %w", r.endpoint, r.app.ID, err)
		}
	}
	return s, nil
}

func (s *svc) close() {
	_ = s.srv.Close() // the feature store is memory-only; nothing to flush
}

// post serves one request through the server's HTTP handler; anything
// but 200 is an error.
func (s *svc) post(endpoint string, payload []byte) error {
	req := httptest.NewRequest(http.MethodPost, "/v1/"+endpoint, bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// stepResult is one open-loop rate step.
type stepResult struct {
	rate float64
	// latMS is each request's latency from its scheduled send time; a
	// failed request counts as missing the limit.
	latMS      []float64
	byEndpoint map[string][]float64
	// lagMS is how late the generator dispatched each request.
	lagMS    []float64
	failed   int
	elapsed  time.Duration // first scheduled send to last completion
	achieved float64       // completed requests per second
}

// passes reports whether the step met the limit: no failures and its
// tail within the limit. A backlog that grows during the step delays
// every later request, so once more than 1% of them miss the limit it
// fails the step too.
func (r *stepResult) passes() bool {
	return r.failed == 0 && tail(r.latMS) <= latencyLimitMS
}

// step offers reqs open-loop at rate: request i is due at start + i/rate
// whatever happened to earlier ones, and waits on the client side when
// all connections are busy.
func (s *svc) step(reqs []encoded, rate float64, t *tally) stepResult {
	res := stepResult{rate: rate, latMS: make([]float64, len(reqs)), lagMS: make([]float64, len(reqs)),
		byEndpoint: map[string][]float64{}}
	interval := time.Duration(float64(time.Second) / rate)
	errs := make([]error, len(reqs))
	done := make([]time.Time, len(reqs))
	due := make(chan int, len(reqs)) // holds every request, so dispatch never blocks
	start := time.Now().Add(time.Millisecond)
	sched := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	var wg sync.WaitGroup
	for c := 0; c < s.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				errs[i] = s.post(reqs[i].endpoint, reqs[i].payload)
				done[i] = time.Now()
			}
		}()
	}
	for i := range reqs {
		time.Sleep(time.Until(sched(i)))
		res.lagMS[i] = ms(time.Since(sched(i)))
		due <- i
	}
	close(due)
	wg.Wait()
	last := start
	for i, r := range reqs {
		lat := ms(done[i].Sub(sched(i)))
		t.attempted++
		if t.fail(errs[i], r.endpoint+" "+r.app.ID) {
			res.failed++
			lat = math.Max(lat, 2*latencyLimitMS)
		}
		res.latMS[i] = lat
		res.byEndpoint[r.endpoint] = append(res.byEndpoint[r.endpoint], lat)
		if done[i].After(last) {
			last = done[i]
		}
	}
	res.elapsed = last.Sub(start)
	res.achieved = float64(len(reqs)-res.failed) / res.elapsed.Seconds()
	return res
}

// stepSize is how many requests a step at rate sends: at least
// minStepRequests, or seconds' worth.
func stepSize(rate, seconds float64) int {
	return max(minStepRequests, int(rate*seconds))
}

// saturate offers back-to-back requests on every connection for
// saturateSeconds and returns the completed rate: the most the service
// can sustain, with no regard to latency.
func (s *svc) saturate(tr *traffic, t *tally) (float64, error) {
	reqs, err := tr.draw(int(4000 * saturateSeconds))
	if err != nil {
		return 0, err
	}
	var next, done atomic.Int64
	deadline := time.Now().Add(time.Duration(saturateSeconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < s.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				err := s.post(reqs[i].endpoint, reqs[i].payload)
				mu.Lock()
				t.attempted++
				failed := t.fail(err, reqs[i].endpoint+" "+reqs[i].app.ID)
				mu.Unlock()
				if !failed {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds(), nil
}

// searchMaxQPS finds the highest offered rate that passes. The faster of
// two closed-loop bursts gives the saturation rate C, so that a host stall
// during one does not lower it; the limit is met somewhere below C, and
// on a host slower than during the faster burst it can be well below, so
// the search bisects [C/4, C] geometrically six times, to within 2.2%.
// The nominal step counts as a passing or failing probe too. It returns
// the achieved rate of the best passing step (0 if none passed).
func (s *svc) searchMaxQPS(tr *traffic, nominal stepResult, t *tally) (float64, error) {
	var c float64
	for i := 0; i < 2; i++ {
		burst, err := s.saturate(tr, t)
		if err != nil {
			return 0, err
		}
		c = max(c, burst)
	}
	best := &nominal
	if !nominal.passes() {
		best = nil
	}
	lo, hi := c/4, c
	for i := 0; i < 6; i++ {
		rate := math.Sqrt(lo * hi)
		reqs, err := tr.draw(probeRequests)
		if err != nil {
			return 0, err
		}
		r := s.step(reqs, rate, t)
		if r.passes() {
			lo = rate
			if best == nil || r.rate > best.rate {
				best = &r
			}
		} else {
			hi = rate
		}
	}
	if best == nil {
		return 0, nil
	}
	return best.achieved, nil
}

// runService is the service workload: an in-process groverd on bcode
// driven open-loop with a seeded mix of compile, lint, transform and
// autotune requests over the 11 app sources.
func runService(o opts) (*outcome, error) {
	tr, err := newTraffic(o.seed)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	warm := tr.warm()
	if o.trace {
		s, err := startService(warm)
		if err != nil {
			return nil, err
		}
		defer s.close()
		return traceService(s, tr, o, out)
	}
	s, setupS, err := repeatSetup(func() (*svc, error) { return startService(warm) }, (*svc).close)
	if s != nil {
		defer s.close()
	}
	if err != nil {
		return nil, err
	}
	reqs, err := tr.draw(stepSize(nominalQPS, o.seconds*nominalShare))
	if err != nil {
		return nil, err
	}
	nominal := s.step(reqs, nominalQPS, &out.tally)
	maxQPS, err := s.searchMaxQPS(tr, nominal, &out.tally)
	if err != nil {
		return nil, err
	}
	var endpointMedians []float64
	for _, e := range endpointMix {
		endpointMedians = append(endpointMedians, median(nominal.byEndpoint[e.name]))
	}
	out.m["wall_s"] = nominal.elapsed.Seconds()
	out.m["launch_geomean_ms"] = geomean(endpointMedians)
	out.m["p50_ms"] = median(nominal.latMS)
	out.m["p99_ms"] = tail(nominal.latMS)
	out.m["max_qps"] = maxQPS
	out.m["setup_s"] = setupS
	return out, nil
}

// traceService is the service workload's traced run: the nominal step
// as the untraced run offers it, read through the server's own counters
// and the request traces it records itself (queue.wait and the pipeline
// stages a miss runs). Then the front end's work on every miss of the
// step is counted, and since the server times no span around static
// analysis, every lint miss is analysed again here, from outside.
func traceService(s *svc, tr *traffic, o opts, out *outcome) (*outcome, error) {
	m := out.m
	reqs, err := tr.draw(stepSize(nominalQPS, o.seconds*nominalShare))
	if err != nil {
		return nil, err
	}
	cache0, err := s.cacheStats()
	if err != nil {
		return nil, err
	}
	sink := &traceSink{}
	s.srv.Traces().SetSink(sink)
	nominal := s.step(reqs, nominalQPS, &out.tally)
	s.srv.Traces().SetSink(nil)
	cache1, err := s.cacheStats()
	if err != nil {
		return nil, err
	}
	lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses) + (cache1.Dedups - cache0.Dedups)
	if lookups > 0 {
		m["kcache.hit_ratio"] = float64(cache1.Hits-cache0.Hits) / float64(lookups)
	}
	l := newLedger()
	if l.served, err = sink.traces(); err != nil {
		return nil, err
	}
	var waits []float64
	var served time.Duration
	for _, t := range l.served {
		served += time.Duration(t.DurMS * float64(time.Millisecond))
		for _, sp := range t.Spans {
			if sp.Name == "queue.wait" {
				waits = append(waits, sp.DurMS)
			}
		}
	}
	m["service.queue_wait_p50_ms"] = median(waits)
	m["service.queue_wait_p99_ms"] = tail(waits)
	for _, e := range endpointMix {
		m["service."+e.name+".p99_ms"] = tail(nominal.byEndpoint[e.name])
	}
	m["loadgen.lag_p99_ms"] = tail(nominal.lagMS)

	start := time.Now()
	var analysed time.Duration
	for _, r := range reqs {
		if !r.hit {
			out.attempted++
			d, err := replayMiss(l, m, r.svcRequest)
			out.fail(err, "replay "+r.endpoint+" "+r.app.ID)
			analysed += d
		}
	}
	replay := time.Since(start)
	m["trace.overhead_ratio"] = (nominal.elapsed + replay).Seconds() / nominal.elapsed.Seconds()
	out.ledger(l, served+analysed)
	return out, nil
}

// traceSink keeps the raw trace exports the server writes during the
// traced nominal step; they are decoded after it, off the request path.
type traceSink struct {
	mu    sync.Mutex
	lines [][]byte
}

func (w *traceSink) Write(line []byte) (int, error) {
	w.mu.Lock()
	w.lines = append(w.lines, append([]byte(nil), line...))
	w.mu.Unlock()
	return len(line), nil
}

func (w *traceSink) traces() ([]telemetry.TraceExport, error) {
	out := make([]telemetry.TraceExport, len(w.lines))
	for i, line := range w.lines {
		if err := json.Unmarshal(line, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cacheStats reads kcache's counters from the server's stats endpoint.
func (s *svc) cacheStats() (kcache.Stats, error) {
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st service.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return kcache.Stats{}, fmt.Errorf("stats: %w", err)
	}
	return st.Cache, nil
}

// replayMiss counts, untimed, the front end's work on the source of a
// miss of r: clc.tokens, lower.ir_instrs and the compiled module's
// opt.ir_instrs. For a lint miss it then runs the static analysis the
// server runs, as one analysis span, and returns that span's duration.
func replayMiss(l *ledger, m metrics, r svcRequest) (time.Duration, error) {
	name := r.app.ID + ".cl"
	if err := countFrontEnd(m, name, r.app.Source, r.defines()); err != nil {
		return 0, err
	}
	mod, err := opencl.CompileModule(name, r.app.Source, r.defines())
	if err != nil {
		return 0, err
	}
	l.count(m, "opt.ir_instrs", irInstrs(mod))
	if r.endpoint != "lint" {
		return 0, nil
	}
	return l.timed("analysis", func() error {
		analysis.AnalyzeKernel(mod.Kernel(r.app.Kernel), analysis.Options{WorkGroupSize: r.local})
		return nil
	})
}
