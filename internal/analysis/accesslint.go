package analysis

import (
	"fmt"

	"grover/internal/analysis/memaccess"
	"grover/internal/clc"
	"grover/internal/ir"
	"grover/internal/memsim"
)

// Access-pattern detectors: opt-in performance lints backed by the
// static access summary (internal/analysis/memaccess). Unlike the
// default detectors these judge efficiency, not correctness, so they
// run only when Options.AccessChecks is set.
//
//   - uncoalesced-global: consecutive work-items touch non-consecutive
//     global addresses, so a GPU warp's access splits into many memory
//     transactions.
//   - local-bank-conflict: a warp's local (scratch-pad) access pattern
//     maps several lanes onto the same bank, serializing the access.
//   - barrier-no-comm: a barrier whose surrounding local-memory traffic
//     shows no cross-item communication — nothing is exchanged, so the
//     barrier (and possibly the staging) is overhead.

// lintBanks/lintBankWidth are the generic scratch-pad geometry the
// bank-conflict lint assumes (32 four-byte banks, the common case across
// the simulated GPU profiles).
const (
	lintBanks     = 32
	lintBankWidth = 4
	lintWarp      = 32
)

func checkAccessPatterns(fn *ir.Function, opts Options) []Finding {
	sum := memaccess.Summarize(fn, memaccess.Options{WorkGroup: opts.WorkGroupSize})
	var out []Finding
	out = append(out, checkCoalescing(sum)...)
	out = append(out, checkBankConflicts(sum)...)
	out = append(out, checkBarrierComm(sum)...)
	return out
}

// laneAddrs expands an access's dimension-0 lane stride over one row of
// work-items (up to lintWarp lanes). The lint deliberately judges only
// the within-row pattern: whether lanes from different rows share a warp
// depends on warp width and group shape, which the profitability model
// simulates exactly; a conventionally padded tile (e.g. 16×17) should
// not be flagged for a wraparound between rows.
func laneAddrs(sum *memaccess.Summary, a *memaccess.Access) []uint64 {
	n := sum.WG[0]
	if n > lintWarp {
		n = lintWarp
	}
	if n < 1 {
		n = 1
	}
	base := uint64(1) << 20
	out := make([]uint64, 0, n)
	for i := int64(0); i < int64(n); i++ {
		off := i * a.Lane[0]
		if off < 0 {
			off = -off
		}
		out = append(out, base+uint64(off))
	}
	return out
}

// checkCoalescing flags global accesses whose work-item stride is
// neither 0 (uniform broadcast) nor the element size (perfectly
// coalesced).
func checkCoalescing(sum *memaccess.Summary) []Finding {
	var out []Finding
	for _, a := range sum.Accesses {
		if a.Space != clc.ASGlobal || !a.LaneOK {
			continue
		}
		stride := a.Lane[0]
		if stride < 0 {
			stride = -stride
		}
		if stride == 0 || stride == int64(a.Bytes) {
			continue
		}
		verb := "reads"
		if a.Store {
			verb = "writes"
		}
		out = append(out, Finding{
			Detector: "uncoalesced-global",
			Severity: SeverityWarning,
			Kernel:   sum.Fn.Name,
			Pos:      a.Instr.Pos,
			Message: fmt.Sprintf(
				"uncoalesced global access: consecutive work-items access %s[%s] %d bytes apart (element size %d); a warp %s up to %d separate segments",
				a.BaseName, sum.OffsetString(a), stride, a.Bytes, verb, warpSegments(stride, a.Bytes)),
		})
	}
	return out
}

// warpSegments estimates how many 128-byte segments a 32-lane warp
// touches at the given stride.
func warpSegments(stride int64, bytes int) int {
	span := stride*(lintWarp-1) + int64(bytes)
	segs := int((span + 127) / 128)
	if segs < 1 {
		segs = 1
	}
	if segs > lintWarp {
		segs = lintWarp
	}
	return segs
}

// checkBankConflicts flags local accesses whose lane pattern maps
// multiple warp lanes onto the same scratch-pad bank.
func checkBankConflicts(sum *memaccess.Summary) []Finding {
	var out []Finding
	for _, a := range sum.Accesses {
		if a.Space != clc.ASLocal || !a.LaneOK {
			continue
		}
		deg := memsim.BankConflictDegree(laneAddrs(sum, a), 0, lintBanks, lintBankWidth)
		if deg < 2 {
			continue
		}
		out = append(out, Finding{
			Detector: "local-bank-conflict",
			Severity: SeverityWarning,
			Kernel:   sum.Fn.Name,
			Pos:      a.Instr.Pos,
			Message: fmt.Sprintf(
				"local access %s[%s] has a %d-way bank conflict (lane stride %d over %d banks of %d bytes); pad the buffer to break the pattern",
				a.BaseName, sum.OffsetString(a), deg, a.Lane[0], lintBanks, lintBankWidth),
		})
	}
	return out
}

// checkBarrierComm flags barriers with no evidence of cross-item
// communication through local memory: no local traffic at all, one-way
// traffic (only stores or only loads), or loads that provably read back
// exactly what the same work-item wrote.
func checkBarrierComm(sum *memaccess.Summary) []Finding {
	if len(sum.Barriers) == 0 {
		return nil
	}
	var stores, loads []*memaccess.Access
	for _, a := range sum.Accesses {
		if a.Space != clc.ASLocal {
			continue
		}
		if a.Store {
			stores = append(stores, a)
		} else {
			loads = append(loads, a)
		}
	}
	reason := ""
	switch {
	case len(stores) == 0 && len(loads) == 0:
		reason = "the kernel never accesses __local memory"
	case len(loads) == 0:
		reason = "local memory is written but never read"
	case len(stores) == 0:
		reason = "local memory is read but never written"
	default:
		if selfCommunicationOnly(sum, stores, loads) {
			reason = "every local load reads the address the same work-item stored (no cross-item exchange)"
		}
	}
	if reason == "" {
		return nil
	}
	var out []Finding
	for _, b := range sum.Barriers {
		out = append(out, Finding{
			Detector: "barrier-no-comm",
			Severity: SeverityWarning,
			Kernel:   sum.Fn.Name,
			Pos:      b.Instr.Pos,
			Message:  "barrier synchronizes no communication: " + reason,
		})
	}
	return out
}

// selfCommunicationOnly reports whether every local load's affine offset
// exactly matches some store's offset — the "software cache of your own
// data" shape, where the barrier protects nothing. Any non-affine offset
// disables the conclusion.
func selfCommunicationOnly(sum *memaccess.Summary, stores, loads []*memaccess.Access) bool {
	written := map[string]bool{}
	for _, st := range stores {
		if st.Offset == nil {
			return false
		}
		written[st.BaseName+"|"+sum.OffsetString(st)] = true
	}
	for _, ld := range loads {
		if ld.Offset == nil {
			return false
		}
		if !written[ld.BaseName+"|"+sum.OffsetString(ld)] {
			return false
		}
	}
	return true
}
