package device

import (
	"fmt"
	"math"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/memsim"
	"grover/internal/vm"
)

// Simulator turns a VM execution trace into simulated device time for one
// profile. It supplies one tracer per VM worker (one worker models one
// core / compute unit); workers accumulate cycles independently and the
// device time is the maximum across workers (they run in parallel).
type Simulator struct {
	Prof    *Profile
	workers []*workerSim
}

// NewSimulator prepares per-core state for the profile.
func NewSimulator(p *Profile) (*Simulator, error) {
	s := &Simulator{Prof: p, workers: make([]*workerSim, p.Cores)}
	for i := range s.workers {
		h, err := memsim.NewHierarchy(p.Caches, p.DRAMLatency)
		if err != nil {
			return nil, fmt.Errorf("device %s: %w", p.Name, err)
		}
		s.workers[i] = &workerSim{prof: p, hier: h, keys: map[*ir.Instr]uint32{}, next: make([]keySlot, 1)}
	}
	return s, nil
}

// Opts returns the launch options wiring this simulator into a VM launch.
func (s *Simulator) Opts() *vm.LaunchOpts {
	return &vm.LaunchOpts{
		Workers:   s.Prof.Cores,
		TracerFor: func(w int) vm.Tracer { return s.workers[w%len(s.workers)] },
	}
}

// LevelStats is one cache level's aggregate activity across all workers.
type LevelStats struct {
	Name string
	memsim.Stats
}

// Result summarizes one simulated launch.
type Result struct {
	// Cycles is the device makespan: the maximum worker cycle count.
	Cycles int64
	// TotalCycles sums all workers (device throughput work).
	TotalCycles int64
	// Instrs, Accesses, Transactions aggregate the whole launch.
	Instrs       int64
	Accesses     int64
	Transactions int64
	// TimeMS converts the makespan to milliseconds at the profile clock.
	TimeMS float64
	// Caches aggregates every cache level's counters across workers, and
	// DRAMAccesses the backstop traffic — the evidence behind the
	// conflict-miss explanations in EXPERIMENTS.md.
	Caches       []LevelStats
	DRAMAccesses int64
}

// Result collects the per-worker counters (counters keep accumulating
// until Reset).
func (s *Simulator) Result() Result {
	var r Result
	for wi, w := range s.workers {
		if w.cycles > r.Cycles {
			r.Cycles = w.cycles
		}
		r.TotalCycles += w.cycles
		r.Instrs += w.instrs
		r.Accesses += w.accesses
		r.Transactions += w.transactions
		for li, lvl := range w.hier.Levels {
			if wi == 0 {
				r.Caches = append(r.Caches, LevelStats{Name: lvl.Name()})
			}
			st := lvl.Stats()
			agg := &r.Caches[li]
			agg.Accesses += st.Accesses
			agg.Hits += st.Hits
			agg.Misses += st.Misses
			agg.Writebacks += st.Writebacks
		}
		r.DRAMAccesses += w.hier.Mem.Accesses
	}
	r.TimeMS = float64(r.Cycles) / (s.Prof.FreqGHz * 1e6)
	return r
}

// Reset clears all worker state (cycles, cache contents and the
// instruction keys). Lane buffers keep their storage for the next launch.
func (s *Simulator) Reset() {
	for _, w := range s.workers {
		w.cycles, w.instrs, w.accesses, w.transactions = 0, 0, 0, 0
		w.hier.Reset()
		w.clearGroup()
		clear(w.keys)
		w.next, w.lastKey = w.next[:1], 0
		w.next[0] = keySlot{}
	}
}

// access is one buffered GPU access record. It is 16 bytes and holds no
// pointer, so lane buffers cost the garbage collector nothing to scan.
type access struct {
	off   uint64 // offset within space, split off at Access time
	key   uint32 // interned instruction (workerSim.key)
	size  uint16
	space uint8 // clc.AddrSpace
	store bool
}

// keySlot predicts the next instruction and its key.
type keySlot struct {
	in  *ir.Instr
	key uint32
}

// workerSim is one simulated core / compute unit implementing vm.Tracer.
type workerSim struct {
	prof *Profile
	hier *memsim.Hierarchy

	cycles       int64
	instrs       int64
	accesses     int64
	transactions int64

	// group buffers per-work-item access streams and retire counts (GPU
	// mode only). Lanes below groupN are in use; the rest are empty but
	// keep their storage across groups and launches.
	group    [][]access
	wiInstrs []int64
	groupN   int

	// keys interns instructions to dense record keys. next[k] is the
	// instruction seen after key k last time; lastKey is the latest key.
	keys    map[*ir.Instr]uint32
	next    []keySlot
	lastKey uint32

	// Per-warp scratch, reused from warp position to warp position.
	addrs []uint64
	sizes []int
	segs  []uint64
}

// localBase maps the per-core local-memory arena into a distinct region of
// the simulated physical address space. The arena is reused from group to
// group on the same core, exactly like a CPU OpenCL runtime's per-thread
// local buffer, so it stays cache-resident.
const localBase = uint64(1) << 40

// privBase maps private (stack) memory; CPU profiles charge a flat cost
// instead, so this is only used for completeness.
const privBase = uint64(1) << 41

// GroupBegin implements vm.Tracer.
func (w *workerSim) GroupBegin(group [3]int, linear int) {
	if w.prof.Kind != GPUKind {
		return
	}
	w.clearGroup()
}

// clearGroup empties the lanes the current group used.
func (w *workerSim) clearGroup() {
	for wi := 0; wi < w.groupN; wi++ {
		w.group[wi] = w.group[wi][:0]
		w.wiInstrs[wi] = 0
	}
	w.groupN = 0
}

// lane makes work-item wi part of the current group.
func (w *workerSim) lane(wi int) {
	if wi < w.groupN {
		return
	}
	for wi >= len(w.group) {
		w.group = append(w.group, nil)
		w.wiInstrs = append(w.wiInstrs, 0)
	}
	w.groupN = wi + 1
}

// key returns the dense key of in. ir.Instr.ID cannot serve: it is
// per-function, and every store has ID -1. Lanes run the same code, so
// the instruction that followed the last one seen is tried before the
// table.
func (w *workerSim) key(in *ir.Instr) uint32 {
	if n := &w.next[w.lastKey]; n.in == in && in != nil {
		w.lastKey = n.key
		return n.key
	}
	k, ok := w.keys[in]
	if !ok {
		k = uint32(len(w.keys))
		w.keys[in] = k
		w.next = append(w.next, keySlot{})
	}
	w.next[w.lastKey] = keySlot{in, k}
	w.lastKey = k
	return k
}

// Access implements vm.Tracer.
func (w *workerSim) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {
	w.accesses++
	space, off := vm.SplitAddr(addr)
	if w.prof.Kind == CPUKind {
		switch space {
		case clc.ASPrivate:
			w.cycles += w.prof.PrivCost
		case clc.ASLocal:
			// Local memory on a cache-only processor is ordinary memory.
			w.cycles += w.hier.Access(localBase+off, size, store)
		default:
			w.cycles += w.hier.Access(off, size, store)
		}
		return
	}
	// GPU: buffer for warp-level processing at GroupEnd. The VM loads and
	// stores scalars, vectors and pointers, at most 128 bytes, so a size
	// the record cannot hold is a bug, never a kernel's doing.
	if uint(size) > math.MaxUint16 {
		panic(fmt.Sprintf("device: %d-byte access does not fit an access record", size))
	}
	w.lane(wi)
	w.group[wi] = append(w.group[wi], access{
		off: off, key: w.key(in), size: uint16(size), space: uint8(space), store: store})
}

// Barrier implements vm.Tracer.
func (w *workerSim) Barrier(wiCount int) {
	if w.prof.Kind == CPUKind {
		w.cycles += int64(wiCount) * w.prof.BarrierCost
		return
	}
	warps := (wiCount + w.prof.WarpWidth - 1) / w.prof.WarpWidth
	w.cycles += int64(warps) * w.prof.BarrierCost
}

// Instrs implements vm.Tracer.
func (w *workerSim) Instrs(wi int, n int64) {
	w.instrs += n
	if w.prof.Kind == CPUKind {
		w.cycles += int64(float64(n) * w.prof.IssueCost)
		return
	}
	w.lane(wi)
	w.wiInstrs[wi] += n
}

// GroupEnd implements vm.Tracer. For GPUs this is where warps are formed
// and the coalescing/bank models run.
func (w *workerSim) GroupEnd() {
	if w.prof.Kind != GPUKind {
		return
	}
	ww := w.prof.WarpWidth
	for warpStart := 0; warpStart < w.groupN; warpStart += ww {
		warpEnd := warpStart + ww
		if warpEnd > w.groupN {
			warpEnd = w.groupN
		}
		w.processWarp(warpStart, warpEnd)
	}
	w.clearGroup()
}

func (w *workerSim) processWarp(lo, hi int) {
	// Instruction issue: lockstep execution costs the longest lane.
	lanes := w.group[lo:hi]
	var maxInstr int64
	maxLen := 0
	for i, lane := range lanes {
		if n := w.wiInstrs[lo+i]; n > maxInstr {
			maxInstr = n
		}
		if len(lane) > maxLen {
			maxLen = len(lane)
		}
	}
	w.cycles += int64(float64(maxInstr) * w.prof.IssueCost)

	// Memory: align lanes position-by-position. Uniform kernels produce
	// identical access sequences per lane; on divergence (differing
	// instructions at one position) each lane is charged separately.
	for k := 0; k < maxLen; k++ {
		addrs, sizes := w.addrs[:0], w.sizes[:0]
		var first access
		uniform := true
		for _, lane := range lanes {
			if k >= len(lane) {
				continue
			}
			a := &lane[k]
			if len(addrs) == 0 {
				first = *a
			} else if a.key != first.key {
				uniform = false
			}
			addrs = append(addrs, a.off)
			sizes = append(sizes, int(a.size))
		}
		w.addrs, w.sizes = addrs, sizes
		if len(addrs) == 0 {
			continue
		}
		space := clc.AddrSpace(first.space)
		if !uniform {
			// Divergent warp position: serialize each lane.
			for i := range addrs {
				w.chargeWarpAccess(addrs[i:i+1], sizes[i:i+1], space, first.store)
			}
			continue
		}
		w.chargeWarpAccess(addrs, sizes, space, first.store)
	}
}

func (w *workerSim) chargeWarpAccess(addrs []uint64, sizes []int, space clc.AddrSpace, store bool) {
	switch space {
	case clc.ASPrivate:
		w.cycles += w.prof.PrivCost
	case clc.ASLocal:
		deg := memsim.BankConflictDegree(addrs, localBase, w.prof.SPMBanks, w.prof.BankWidth)
		w.cycles += int64(deg) * w.prof.SPMLat
	default:
		// Each transaction pays the issue cost plus the hierarchy cost of
		// one segment, charged in the order the lanes first touch them.
		w.segs = memsim.Segments(w.segs, addrs, sizes, w.prof.Segment)
		w.transactions += int64(len(w.segs))
		seg := uint64(w.prof.Segment)
		for _, s := range w.segs {
			w.cycles += w.prof.TransCost + w.hier.Access(s*seg, w.prof.Segment, store)
		}
	}
}
