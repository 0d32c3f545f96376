package device

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/vm"
)

// raggedSrc's lanes retire different access counts (a loop of l % 7
// global loads, a store on every third lane) around a local-memory
// exchange, so warps mix full, short and empty lanes at each position.
const raggedSrc = `
__kernel void ragged(__global float* dst, __global const float* src, int n) {
    __local float t[256];
    int l = get_local_id(0);
    int g = get_global_id(0);
    float acc = 0.0f;
    for (int i = 0; i < l % 7; i++) {
        acc += src[(g * 3 + i * 17) % n];
    }
    t[l] = acc;
    barrier(CLK_LOCAL_MEM_FENCE);
    if (l % 3 == 0) {
        dst[g] = t[(l * 5) % get_local_size(0)];
    }
}

__kernel void tile(__global float* dst, __global const float* src) {
    __local float t[256];
    int l = get_local_id(0);
    int ls = get_local_size(0);
    t[l] = src[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    dst[get_global_id(0)] = t[(l * 17) % ls];
}
`

// TestSimulatorReuseMatchesFresh runs one simulator over successive
// launches with shrinking and growing work-groups. Every launch must
// report exactly what a fresh simulator reports, so no lane record,
// retire count or instruction key leaks from one group or launch into
// the next.
func TestSimulatorReuseMatchesFresh(t *testing.T) {
	p := compile(t, raggedSrc)
	const n = 1024
	g := vm.NewGlobalMem(1 << 16)
	dst := g.Alloc(n * 4)
	src := g.Alloc(n * 4)
	launch := func(sim *Simulator, kernel string, ls int) Result {
		t.Helper()
		args := []vm.Arg{vm.BufArg(dst), vm.BufArg(src)}
		if kernel == "ragged" {
			args = append(args, vm.IntArg(n))
		}
		cfg := vm.Config{GlobalSize: [3]int{n, 1, 1}, LocalSize: [3]int{ls, 1, 1}, Args: args}
		if err := p.Launch(kernel, cfg, g, sim.Opts()); err != nil {
			t.Fatal(err)
		}
		return sim.Result()
	}
	for _, prof := range All() {
		if prof.Kind != GPUKind {
			continue
		}
		reused, err := NewSimulator(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, kernel := range []string{"ragged", "tile"} {
			for _, ls := range []int{256, 16, 64} {
				fresh, err := NewSimulator(prof)
				if err != nil {
					t.Fatal(err)
				}
				want := launch(fresh, kernel, ls)
				reused.Reset()
				if got := launch(reused, kernel, ls); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s ls=%d: reused simulator %+v, fresh %+v", prof.Name, kernel, ls, got, want)
				}
			}
		}
	}
}

// TestGPUGroupDoesNotAllocate drives whole warps through a worker's
// tracer methods: uniform global and local positions, a divergent
// position and lanes with fewer accesses. After warm-up a group must
// allocate nothing.
func TestGPUGroupDoesNotAllocate(t *testing.T) {
	ld, st, alt := &ir.Instr{}, &ir.Instr{}, &ir.Instr{}
	for _, prof := range All() {
		if prof.Kind != GPUKind {
			continue
		}
		sim, err := NewSimulator(prof)
		if err != nil {
			t.Fatal(err)
		}
		w := sim.workers[0]
		lanes := 2 * prof.WarpWidth
		group := func() {
			w.GroupBegin([3]int{}, 0)
			for wi := 0; wi < lanes; wi++ {
				w.Instrs(wi, int64(10+wi%3))
				w.Access(ld, wi, vm.MakeAddr(clc.ASGlobal, uint64(wi*4)), 4, false)
				w.Access(st, wi, vm.MakeAddr(clc.ASLocal, uint64(wi*8)), 4, true)
				in := ld
				if wi%2 == 1 {
					in = alt
				}
				w.Access(in, wi, vm.MakeAddr(clc.ASGlobal, uint64(4096+wi*256)), 8, false)
				if wi%4 == 0 {
					w.Access(st, wi, vm.MakeAddr(clc.ASGlobal, uint64(wi*4)), 16, true)
				}
			}
			w.GroupEnd()
		}
		group()
		if allocs := testing.AllocsPerRun(20, group); allocs != 0 {
			t.Errorf("%s: %v allocations per group, want 0", prof.Name, allocs)
		}
	}
}

// TestAccessRecordHoldsEverySize checks that every access size the VM
// can emit (scalar, vector and pointer loads and stores) survives the
// access record unchanged, and that a size too large for the record
// fails loudly instead of being truncated.
func TestAccessRecordHoldsEverySize(t *testing.T) {
	if n := unsafe.Sizeof(access{}); n != 16 {
		t.Errorf("access record is %d bytes, want 16", n)
	}
	types := []clc.Type{&clc.PointerType{Elem: clc.TypeFloat, Space: clc.ASGlobal}}
	for _, base := range []string{"bool", "char", "uchar", "short", "ushort", "int", "uint", "long", "ulong", "float", "double"} {
		types = append(types, clc.LookupNamedType(base))
		if base == "bool" {
			continue
		}
		for _, n := range []string{"2", "3", "4", "8", "16"} {
			types = append(types, clc.LookupNamedType(base+n))
		}
	}
	sim, err := NewSimulator(Fermi())
	if err != nil {
		t.Fatal(err)
	}
	w := sim.workers[0]
	in := &ir.Instr{}
	for _, typ := range types {
		w.GroupBegin([3]int{}, 0)
		w.Access(in, 0, vm.MakeAddr(clc.ASGlobal, 0), typ.Size(), false)
		if got := int(w.group[0][0].size); got != typ.Size() {
			t.Errorf("%s: record holds size %d, want %d", typ, got, typ.Size())
		}
		w.GroupEnd()
	}

	defer func() {
		if recover() == nil {
			t.Error("an access too large for the record was accepted")
		}
	}()
	w.GroupBegin([3]int{}, 0)
	w.Access(in, 0, vm.MakeAddr(clc.ASGlobal, 0), math.MaxUint16+1, false)
}

// TestInstrKeysRestartAfterReset checks that Reset forgets every
// instruction key, including the predicted successor of the first one.
func TestInstrKeysRestartAfterReset(t *testing.T) {
	sim, err := NewSimulator(Kepler())
	if err != nil {
		t.Fatal(err)
	}
	w := sim.workers[0]
	a, b, c := &ir.Instr{}, &ir.Instr{}, &ir.Instr{}
	w.key(a)
	w.key(b)
	sim.Reset()
	got := []uint32{w.key(b), w.key(c), w.key(a), w.key(b), w.key(c), w.key(c)}
	if want := []uint32{0, 1, 2, 0, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("keys after Reset = %v, want %v", got, want)
	}
}
