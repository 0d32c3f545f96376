package memsim

// Segments computes the memory transactions a warp's simultaneous accesses
// generate: the distinct segment-aligned blocks touched (the classic
// NVIDIA/AMD coalescing rule). addrs are the byte addresses of the active
// lanes and sizes their access widths; segment is the transaction size in
// bytes (e.g. 128). The segment indices are written into dst's storage in
// the order the lanes first touch them, which is the order a cache model
// must see them in, and the resulting slice is returned; its length is the
// transaction count. Nothing is allocated once dst has room for them.
func Segments(dst, addrs []uint64, sizes []int, segment int) []uint64 {
	dst = dst[:0]
	seg := uint64(segment)
	for i, a := range addrs {
		last := (a + uint64(sizes[i]) - 1) / seg
	next:
		for s := a / seg; s <= last; s++ {
			// Neighbouring lanes usually share a segment: scan newest first.
			for j := len(dst) - 1; j >= 0; j-- {
				if dst[j] == s {
					continue next
				}
			}
			dst = append(dst, s)
		}
	}
	return dst
}

// BankConflictDegree computes the scratch-pad conflict factor of a warp
// access at base+addrs: the maximum number of distinct bank words mapping
// to one bank. Lanes reading the same word broadcast and do not conflict.
// Warps of up to 64 lanes (every profile's width) are handled without
// allocating.
func BankConflictDegree(addrs []uint64, base uint64, banks, bankWidth int) int {
	if len(addrs) == 0 {
		return 0
	}
	bw, nb := uint64(bankWidth), uint64(banks)
	// Insertion-sort the lanes by (bank, word): unit-stride, same-bank and
	// broadcast patterns arrive already in order.
	type bankWord struct{ bank, word uint64 }
	var buf [64]bankWord
	lanes := buf[:0]
	for _, a := range addrs {
		x := bankWord{word: (base + a) / bw}
		x.bank = x.word % nb
		i := len(lanes)
		lanes = append(lanes, x)
		for ; i > 0; i-- {
			p := lanes[i-1]
			if p.bank < x.bank || p.bank == x.bank && p.word <= x.word {
				break
			}
			lanes[i] = p
		}
		lanes[i] = x
	}
	// Count the distinct words in each run of one bank.
	maxDeg, deg := 1, 1
	for i := 1; i < len(lanes); i++ {
		switch {
		case lanes[i].word == lanes[i-1].word:
		case lanes[i].bank == lanes[i-1].bank:
			deg++
			if deg > maxDeg {
				maxDeg = deg
			}
		default:
			deg = 1
		}
	}
	return maxDeg
}
