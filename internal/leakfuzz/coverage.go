package leakfuzz

import "repro/internal/contract"

// Coverage features are small integer keys derived from contract traces.
// A candidate earns a corpus slot by producing a feature no earlier
// candidate produced — the Geier-style feedback signal that steers
// mutation toward unexplored simulator behaviour rather than unexplored
// genome syntax. Key spaces (disjoint by construction):
//
//	0x100 + prev*4 + cur   delivery-path transition bigrams between
//	                       consecutive windows' dominant paths
//	0x200 + mask           per-window switch/stall event mask
//	0x300 + bucket         per-window DSB line-count delta buckets
//	0x310                  LSD locked at window close
//	0x400 + mech           divergence observed, by classified family
const (
	featPathBase   = 0x100
	featSwitchBase = 0x200
	featDSBBase    = 0x300
	featLSDLocked  = 0x310
	featLeakBase   = 0x400
	featEnd        = featLeakBase + 5 // above every key
)

// coverage is the accumulated feature set: one bit per key, and the
// number of keys set.
type coverage struct {
	bits [(featEnd + 63) / 64]uint64
	n    int
}

// add sets key k.
func (c *coverage) add(k int) {
	if w, b := k/64, uint64(1)<<(k%64); c.bits[w]&b == 0 {
		c.bits[w] |= b
		c.n++
	}
}

// pathOf returns the window's dominant delivery path: 0 LSD, 1 DSB,
// 2 MITE, 3 none (no micro-ops delivered).
func pathOf(o contract.Observation) int {
	switch {
	case o.UOpsLSD == 0 && o.UOpsDSB == 0 && o.UOpsMITE == 0:
		return 3
	case o.UOpsLSD >= o.UOpsDSB && o.UOpsLSD >= o.UOpsMITE:
		return 0
	case o.UOpsDSB >= o.UOpsMITE:
		return 1
	default:
		return 2
	}
}

// switchMask summarizes the window's switch-buffer and predecode events.
func switchMask(o contract.Observation) int {
	m := 0
	if o.Switches > 0 {
		m |= 1
	}
	if o.SwHits > 0 {
		m |= 2
	}
	if o.SwConflicts > 0 {
		m |= 4
	}
	if o.SwInserts > 0 {
		m |= 8
	}
	if o.LCPStallCycles > 0 {
		m |= 16
	}
	return m
}

// dsbBucket buckets the window's DSB line delta by sign and magnitude.
func dsbBucket(d int) int {
	neg := 0
	if d < 0 {
		neg, d = 4, -d
	}
	switch {
	case d == 0:
		return 0
	case d == 1:
		return neg + 1
	case d < 4:
		return neg + 2
	case d < 8:
		return neg + 3
	default:
		return neg + 4
	}
}

// addTrace sets every feature key a trace exhibits.
func (c *coverage) addTrace(tr contract.Trace) {
	prev := 3
	for _, o := range tr {
		cur := pathOf(o)
		c.add(featPathBase + prev*4 + cur)
		prev = cur
		c.add(featSwitchBase + switchMask(o))
		c.add(featDSBBase + dsbBucket(o.DSBLines))
		if o.LSDLocked {
			c.add(featLSDLocked)
		}
	}
}

// mechFeature keys a classified divergence family.
func mechFeature(mech contract.Mechanism) int {
	switch mech {
	case contract.Misalignment:
		return featLeakBase + 0
	case contract.SlowSwitch:
		return featLeakBase + 1
	case contract.Eviction:
		return featLeakBase + 2
	case contract.BPU:
		return featLeakBase + 3
	default:
		return featLeakBase + 4
	}
}

// addAll folds a candidate's features into the global set and reports
// how many were new.
func (c *coverage) addAll(traces []contract.Trace, leak bool, mech contract.Mechanism) int {
	before := c.n
	for _, tr := range traces {
		c.addTrace(tr)
	}
	if leak {
		c.add(mechFeature(mech))
	}
	return c.n - before
}
