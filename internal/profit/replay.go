package profit

import (
	"fmt"

	"grover/internal/analysis/memaccess"
	"grover/internal/clc"
	"grover/internal/device"
	"grover/internal/ir"
	"grover/internal/memsim"
)

// fallbackArena places synthetic streaming addresses for accesses whose
// index the evaluator cannot resolve, far from every real buffer.
const fallbackArena = uint64(1) << 44

// replay drives one work-group's schedule through the device cost
// mechanics: serially per work-item on CPU profiles, warp-by-warp in
// lockstep on GPU profiles (mirroring device.workerSim).
type replay struct {
	sum  *memaccess.Summary
	prof *device.Profile
	opts Options
	hier *memsim.Hierarchy

	issue, mem, local, barrier, priv float64
	transactions                     float64
	// coalescing / bank statistics (GPU).
	warpGlobal, warpGlobalLanes float64
	warpLocal, warpLocalDeg     float64
	// fallbackSites streams synthetic addresses per unresolved access.
	fallbackSites map[*memaccess.Access]*fallbackSite

	// lane environments of the group (CPU: one at a time; GPU: per warp).
	envs []*memaccess.Env
	// segs is the coalescing scratch, reused across warp accesses.
	segs []uint64
}

func newReplay(sum *memaccess.Summary, prof *device.Profile, opts Options) (*replay, error) {
	h, err := memsim.NewHierarchy(prof.Caches, prof.DRAMLatency)
	if err != nil {
		return nil, fmt.Errorf("profit: %w", err)
	}
	return &replay{sum: sum, prof: prof, opts: opts, hier: h,
		fallbackSites: map[*memaccess.Access]*fallbackSite{}}, nil
}

// fallbackSite tracks one unresolved access's synthetic stream.
type fallbackSite struct{ id, seq uint64 }

// numGroups sizes the group-count sample from the launch shape, 8 per
// dimension when unknown.
func (r *replay) numGroups() [3]int64 {
	var ng [3]int64
	for d := 0; d < 3; d++ {
		ng[d] = 8
		if r.opts.Global[d] > 0 && r.sum.WG[d] > 0 {
			ng[d] = int64((r.opts.Global[d] + r.sum.WG[d] - 1) / r.sum.WG[d])
		}
		if ng[d] < 1 {
			ng[d] = 1
		}
	}
	return ng
}

func (r *replay) laneEnv(lid [3]int64) *memaccess.Env {
	return &memaccess.Env{
		WG:        r.sum.WG,
		NumGroups: r.numGroups(),
		Lid:       lid,
		Group:     [3]int64{0, 0, 0},
		Vars:      map[*ir.Instr]int64{},
		ArgInts:   r.opts.ArgInts,
	}
}

func (r *replay) run() {
	wg := r.sum.WG
	n := wg[0] * wg[1] * wg[2]
	if r.prof.Kind == device.CPUKind {
		for i := 0; i < n; i++ {
			r.envs = []*memaccess.Env{r.laneEnv(linearLid(i, wg))}
			r.replayRegion(r.sum.Root, 1)
		}
		return
	}
	ww := r.prof.WarpWidth
	for start := 0; start < n; start += ww {
		end := start + ww
		if end > n {
			end = n
		}
		r.envs = r.envs[:0]
		for i := start; i < end; i++ {
			r.envs = append(r.envs, r.laneEnv(linearLid(i, wg)))
		}
		r.replayRegion(r.sum.Root, 1)
	}
}

// linearLid decomposes a linear work-item index into local ids with
// dimension 0 fastest (the warp-formation order of the VM).
func linearLid(i int, wg [3]int) [3]int64 {
	var lid [3]int64
	lid[0] = int64(i % wg[0])
	i /= wg[0]
	lid[1] = int64(i % wg[1])
	lid[2] = int64(i / wg[1])
	return lid
}

// replayRegion walks one region's events, iterating loops over a capped
// sample with linear extrapolation of the remainder.
func (r *replay) replayRegion(reg *memaccess.Region, scale float64) {
	if reg.Loop == nil {
		r.replayEvents(reg, scale)
		return
	}
	l := reg.Loop
	trip := l.Trip
	if trip <= 0 {
		return
	}
	sample := trip
	if sample > r.opts.SampleIters {
		sample = r.opts.SampleIters
	}
	extra := float64(trip) / float64(sample)
	step := l.Step
	if !l.StepOK {
		step = 1
	}
	for t := int64(0); t < sample; t++ {
		if l.IndVar != nil {
			v := l.Init + t*step
			for _, env := range r.envs {
				env.Vars[l.IndVar] = v
			}
		}
		r.replayEvents(reg, scale*extra)
	}
	if l.IndVar != nil {
		for _, env := range r.envs {
			delete(env.Vars, l.IndVar)
		}
	}
}

func (r *replay) replayEvents(reg *memaccess.Region, scale float64) {
	for i := range reg.Events {
		ev := &reg.Events[i]
		w := scale * ev.Weight
		if w == 0 {
			continue
		}
		switch ev.Kind {
		case memaccess.EvWork:
			// CPU: per work-item issue (one env per pass). GPU: lockstep
			// warp issue — the warp pays the instruction count once, and
			// uniform private positions pay PrivCost once per warp.
			r.issue += w * float64(ev.Instrs) * r.prof.IssueCost
			r.priv += w * float64(ev.PrivAccesses) * float64(r.prof.PrivCost)
		case memaccess.EvBarrier:
			// Per work-item on CPU (fiber switch), per warp on GPU.
			r.barrier += w * float64(r.prof.BarrierCost)
		case memaccess.EvLoop:
			// The child event's weight is the header's probability; the
			// region's own events carry their block weights relative to
			// one traversal, so descend with the plain scale.
			r.replayRegion(ev.Child, scale)
		case memaccess.EvAccess:
			r.replayAccess(ev.Access, w)
		}
	}
}

func (r *replay) replayAccess(a *memaccess.Access, w float64) {
	if r.prof.Kind == device.CPUKind {
		addr, ok := r.sum.Addr(a, r.envs[0])
		if !ok {
			addr = r.fallback(a, 1)[0]
		}
		if a.Space == clc.ASLocal {
			addr += memaccess.LocalBase
			r.local += w * float64(r.hier.Access(addr, a.Bytes, a.Store))
			return
		}
		r.mem += w * float64(r.hier.Access(addr, a.Bytes, a.Store))
		return
	}
	// GPU: gather the warp's lane addresses.
	addrs := make([]uint64, 0, len(r.envs))
	sizes := make([]int, 0, len(r.envs))
	resolved := true
	for _, env := range r.envs {
		addr, ok := r.sum.Addr(a, env)
		if !ok {
			resolved = false
			break
		}
		addrs = append(addrs, addr)
		sizes = append(sizes, a.Bytes)
	}
	if !resolved {
		addrs = r.fallback(a, len(r.envs))
		sizes = sizes[:0]
		for range addrs {
			sizes = append(sizes, a.Bytes)
		}
	}
	if a.Space == clc.ASLocal {
		deg := memsim.BankConflictDegree(addrs, memaccess.LocalBase, r.prof.SPMBanks, r.prof.BankWidth)
		r.local += w * float64(deg) * float64(r.prof.SPMLat)
		r.warpLocal += w
		r.warpLocalDeg += w * float64(deg)
		return
	}
	// Coalesce into segment transactions; each pays issue plus the
	// hierarchy cost of one segment (device.workerSim mechanics).
	r.segs = memsim.Segments(r.segs, addrs, sizes, r.prof.Segment)
	seg := uint64(r.prof.Segment)
	for _, s := range r.segs {
		r.mem += w * float64(r.prof.TransCost+r.hier.Access(s*seg, r.prof.Segment, a.Store))
	}
	n := float64(len(r.segs))
	r.transactions += w * n
	r.warpGlobal += w
	r.warpGlobalLanes += w * n
}

// fallback synthesizes streaming addresses for an access the evaluator
// cannot resolve: consecutive chunks per replayed occurrence in a
// per-site stream, lanes packed contiguously (a neutral, plan-invariant
// assumption).
func (r *replay) fallback(a *memaccess.Access, lanes int) []uint64 {
	st := r.fallbackSites[a]
	if st == nil {
		st = &fallbackSite{id: uint64(len(r.fallbackSites))}
		r.fallbackSites[a] = st
	}
	chunk := uint64(r.prof.Segment)
	if chunk == 0 {
		chunk = 64
	}
	base := fallbackArena + st.id<<30 + st.seq*chunk
	st.seq++
	out := make([]uint64, lanes)
	for i := range out {
		out[i] = base + uint64(i*a.Bytes)
	}
	return out
}

func (r *replay) score() *Score {
	s := &Score{
		Device:       r.prof.Name,
		Kernel:       r.sum.Fn.Name,
		Issue:        r.issue,
		Mem:          r.mem,
		Local:        r.local,
		Barrier:      r.barrier,
		Priv:         r.priv,
		Transactions: r.transactions,
	}
	s.Cycles = s.Issue + s.Mem + s.Local + s.Barrier + s.Priv
	if r.warpGlobal > 0 {
		s.CoalesceEff = r.warpGlobal / r.warpGlobalLanes
	}
	if r.warpLocal > 0 {
		s.BankConflict = r.warpLocalDeg / r.warpLocal
	}
	return s
}
