package contract

import "slices"

// Mechanism labels which known channel family a divergence belongs to,
// in the vocabulary of the ChannelSpec scenario space. A counterexample
// outside the known families is Unknown — a candidate new mechanism.
type Mechanism string

const (
	// Misalignment is the LSD family: lock state or LSD-delivered
	// micro-op counts diverge (paper Sections IV-G, V-B).
	Misalignment Mechanism = "misalignment"
	// SlowSwitch is the decode-switch family: switch events, their
	// cost, switch-buffer state, or LCP predecode stalls diverge
	// (Section IV-H, V-E).
	SlowSwitch Mechanism = "slowswitch"
	// Eviction is the DSB/i-cache occupancy family: delivery-path
	// micro-op counts or fill/evict/miss activity diverge
	// (Sections IV-F, V-A).
	Eviction Mechanism = "eviction"
	// BPU is the branch-predictor family: only mispredict counts
	// diverge. The predictor's PHT/BTB/GHR persist across protocol
	// phases like any other frontend structure, so secret-trained
	// predictor state is a real (if out-of-paper) leak the fuzzer can
	// surface; classifying it keeps such counterexamples from masking
	// genuinely novel ones.
	BPU Mechanism = "bpu"
	// Unknown is a divergence in timing or energy alone, with no known
	// structure implicated.
	Unknown Mechanism = "unknown"
)

// families groups observables by mechanism, in tie-break priority
// order: LSD evidence is the most specific (its divergences always drag
// complementary DSB counts along), switch evidence next (layout changes
// also perturb fill patterns), occupancy last.
var families = []struct {
	mech   Mechanism
	fields uint32 // one bit per index into fields
}{
	{Misalignment, fieldSet("uops_lsd", "lsd_locked")},
	{SlowSwitch, fieldSet(
		"switches", "switch_cycles", "lcp_stall_cycles",
		"sw_hits", "sw_conflicts", "sw_inserts",
	)},
	{Eviction, fieldSet("uops_dsb", "uops_mite", "dsb_lines", "l1i_misses")},
	// Last on purpose: trained-predictor divergences ride along with
	// every eviction-style pair (the warmed arm predicts the probe's
	// first traversal), so BPU only wins when mispredicts diverge in
	// strictly more windows than any structural family.
	{BPU, fieldSet("mispredicts")},
}

// fieldSet returns the bit set of the named fields.
func fieldSet(names ...string) uint32 {
	var m uint32
	for _, name := range names {
		i := slices.IndexFunc(fields, func(f field) bool { return f.name == name })
		if i < 0 {
			panic("contract: unknown field " + name)
		}
		m |= 1 << i
	}
	return m
}

// Classify attributes a leak between two probe traces to a mechanism:
// the family whose observables diverge in the most windows, ties going
// to the more specific family. Traces that diverge only in timing,
// energy, stalls, or branch prediction classify as Unknown.
func Classify(a, b Trace) Mechanism {
	n := min(len(a), len(b))
	counts := make([]int, len(families))
	for i := 0; i < n; i++ {
		m := differing(&a[i], &b[i])
		for fi, fam := range families {
			if m&fam.fields != 0 {
				counts[fi]++
			}
		}
	}
	best, bestCount := Unknown, 0
	for fi, fam := range families {
		if counts[fi] > bestCount {
			best, bestCount = fam.mech, counts[fi]
		}
	}
	return best
}
