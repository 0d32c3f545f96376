package memsim_test

import (
	"math/rand"
	"testing"

	"grover/internal/device"
	"grover/internal/memsim"
)

// refSegments is the map-based coalescing rule the walker replaced; it
// only counts the distinct segments.
func refSegments(addrs []uint64, sizes []int, segment int) int {
	seen := map[uint64]struct{}{}
	for i, a := range addrs {
		first := a / uint64(segment)
		last := (a + uint64(sizes[i]) - 1) / uint64(segment)
		for s := first; s <= last; s++ {
			seen[s] = struct{}{}
		}
	}
	return len(seen)
}

// refBankConflictDegree is the map-based bank model the sort-based one
// replaced.
func refBankConflictDegree(addrs []uint64, banks, bankWidth int) int {
	if len(addrs) == 0 {
		return 0
	}
	perBank := map[int]map[uint64]struct{}{}
	for _, a := range addrs {
		b := int((a / uint64(bankWidth)) % uint64(banks))
		if perBank[b] == nil {
			perBank[b] = map[uint64]struct{}{}
		}
		perBank[b][a/uint64(bankWidth)] = struct{}{}
	}
	maxDeg := 1
	for _, m := range perBank {
		if len(m) > maxDeg {
			maxDeg = len(m)
		}
	}
	return maxDeg
}

// warpPattern draws one warp's lane addresses and sizes: unit and large
// strides, broadcast lanes, a few hot words, segment-straddling accesses
// and random scatter, in lane order or shuffled.
func warpPattern(rng *rand.Rand, lanes int) ([]uint64, []int) {
	sizeChoices := []int{1, 2, 4, 8, 16, 32, 64, 128}
	addrs := make([]uint64, lanes)
	sizes := make([]int, lanes)
	base := uint64(rng.Intn(1 << 20))
	size := sizeChoices[rng.Intn(len(sizeChoices))]
	mode := rng.Intn(6)
	stride := uint64(rng.Intn(1024))
	for i := range addrs {
		switch mode {
		case 0: // affine, possibly with straddling sizes
			addrs[i] = base + uint64(i)*stride
		case 1: // broadcast
			addrs[i] = base
		case 2: // a few hot words
			addrs[i] = base + uint64(rng.Intn(4))*stride
		case 3: // scatter
			addrs[i] = uint64(rng.Intn(1 << 16))
		case 4: // mostly broadcast with some distinct lanes
			addrs[i] = base
			if rng.Intn(4) == 0 {
				addrs[i] += uint64(rng.Intn(512))
			}
		default: // unit stride just below a segment boundary
			addrs[i] = 127 + uint64(i*size)
		}
		sizes[i] = size
		if rng.Intn(8) == 0 {
			sizes[i] = sizeChoices[rng.Intn(len(sizeChoices))]
		}
	}
	if rng.Intn(3) == 0 {
		rng.Shuffle(lanes, func(i, j int) {
			addrs[i], addrs[j] = addrs[j], addrs[i]
			sizes[i], sizes[j] = sizes[j], sizes[i]
		})
	}
	return addrs, sizes
}

// TestWarpModelsMatchMapReference checks the allocation-free segment
// walker and bank model against the map implementations they replaced,
// for warp widths 1-64 on every GPU profile's geometry and on two others
// (a non-power-of-two bank count makes the local base change banks).
func TestWarpModelsMatchMapReference(t *testing.T) {
	type geometry struct {
		name                      string
		segment, banks, bankWidth int
	}
	geoms := []geometry{{"wide banks", 32, 16, 8}, {"odd banks", 96, 17, 4}}
	for _, p := range device.All() {
		if p.Kind == device.GPUKind {
			geoms = append(geoms, geometry{p.Name, p.Segment, p.SPMBanks, p.BankWidth})
		}
	}
	rng := rand.New(rand.NewSource(12))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	const localBase = uint64(1) << 40
	var segs []uint64
	for _, g := range geoms {
		for lanes := 1; lanes <= 64; lanes++ {
			for trial := 0; trial < trials; trial++ {
				addrs, sizes := warpPattern(rng, lanes)
				segs = memsim.Segments(segs, addrs, sizes, g.segment)
				if want := refSegments(addrs, sizes, g.segment); len(segs) != want {
					t.Fatalf("%s %d lanes %v sizes %v: %d segments, map reference %d",
						g.name, lanes, addrs, sizes, len(segs), want)
				}
				checkFirstSeenOrder(t, segs, addrs, sizes, g.segment)

				based := make([]uint64, lanes)
				for i, a := range addrs {
					based[i] = localBase + a
				}
				got := memsim.BankConflictDegree(addrs, localBase, g.banks, g.bankWidth)
				if want := refBankConflictDegree(based, g.banks, g.bankWidth); got != want {
					t.Fatalf("%s %d lanes %v: bank degree %d, map reference %d",
						g.name, lanes, addrs, got, want)
				}
			}
		}
	}
}

// checkFirstSeenOrder requires segs to list each segment at the position
// a lane-order walk first reaches it.
func checkFirstSeenOrder(t *testing.T, segs, addrs []uint64, sizes []int, segment int) {
	t.Helper()
	var want []uint64
	seen := map[uint64]bool{}
	for i, a := range addrs {
		for s := a / uint64(segment); s <= (a+uint64(sizes[i])-1)/uint64(segment); s++ {
			if !seen[s] {
				seen[s] = true
				want = append(want, s)
			}
		}
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segments %v, want first-seen order %v", segs, want)
		}
	}
}
