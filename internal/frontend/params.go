// Package frontend implements the processor frontend that is the subject
// of the paper: the Micro-Instruction Translation Engine (MITE), the
// Decoded Stream Buffer (DSB, the micro-op cache), and the Loop Stream
// Detector (LSD), together with the path-switching behaviour between them
// (Figure 1, Section IV).
//
// The model is cycle-level: each simulated cycle one hardware thread
// delivers micro-ops into its Instruction Decode Queue from exactly one of
// the three paths, and the choice of path — plus the stalls incurred when
// switching — produces the timing and power signatures every attack in the
// paper exploits.
package frontend

import "repro/internal/fsum"

// Source identifies which frontend path delivered a micro-op group.
type Source uint8

const (
	// SrcNone means no delivery happened this cycle (idle or stalled).
	SrcNone Source = iota
	// SrcLSD is delivery from the Loop Stream Detector.
	SrcLSD
	// SrcDSB is delivery from the Decoded Stream Buffer (micro-op cache).
	SrcDSB
	// SrcMITE is delivery through the legacy decode pipeline.
	SrcMITE
)

// String returns the path name.
func (s Source) String() string {
	switch s {
	case SrcLSD:
		return "LSD"
	case SrcDSB:
		return "DSB"
	case SrcMITE:
		return "MITE"
	default:
		return "none"
	}
}

// Params holds the frontend geometry and latency constants. The defaults
// encode the structure sizes the paper documents for Skylake-family parts
// (Section IV, Table I); the float-valued latencies are the calibration
// surface used to match the paper's measured separations. The sizes of
// the arrays the parts hold are fixed: the DSB's 32 sets of 8 ways
// (isa.DSBSets, isa.DSBWays), the L1I's shape (cache.L1Config), the
// switch buffer's 8 entries and the IDQ's ring.
type Params struct {
	// DSB lines (Section IV-B): 6 micro-ops or one 32-byte window per
	// line, at most 3 lines per window.
	DSBLineUOps       int
	DSBLinesPerWindow int

	// LSD (Section IV-A): up to 64 micro-ops streamed from the IDQ. A
	// capacity of 0 models microcode with the LSD disabled (Section X).
	LSDCapacityUOps int
	// LSDWindowSlots is the number of distinct 32-byte windows the LSD's
	// internal tracker can hold; misaligned blocks occupy two windows and
	// exhaust it early (Section IV-G).
	LSDWindowSlots int
	// LSDMaxCrossings is the number of window-crossing (misaligned)
	// instructions the LSD tolerates before giving up on a loop.
	LSDMaxCrossings int
	// LSDPoisonCap bounds the shared alignment tracker: how many stale
	// misaligned-window entries can accumulate before saturating. Each
	// fully-aligned loop iteration ages one entry out (Section IV-G).
	LSDPoisonCap int
	// LSDLockIterations is how many identical loop iterations must stream
	// before the LSD takes over delivery.
	LSDLockIterations int
	// LSDJumpBubble is the replay bubble (cycles) after each taken jump
	// streamed from the LSD. It is why jump-dense loops are *slower* from
	// the LSD than from the DSB (Figure 2, Section V-B).
	LSDJumpBubble float64

	// Delivery widths.
	DeliverWidth int // micro-ops/cycle from DSB or LSD
	DecodeWidth  int // micro-ops/cycle through MITE
	FetchBytes   int // bytes/cycle fetched+predecoded by MITE
	IDQCapacity  int // micro-ops buffered per thread in the IDQ

	// Switch costs. An unlearned DSB<->MITE transition pays SwitchPenalty;
	// a transition point the switch buffer has learned pays only
	// SwitchResidual (Section IV-H's "ordered issue" amortization).
	// Counted switch-penalty cycles are mostly overlapped with delivery;
	// only SwitchOverlapCharge of them land on the critical path — which
	// is how Figure 4's mixed-issue pattern shows far more switch-penalty
	// cycles yet a *higher* IPC than ordered issue.
	SwitchPenalty       float64
	SwitchResidual      float64
	SwitchOverlapCharge float64

	// LCP predecode stalls (Section IV-H). A run of consecutive LCP
	// instructions serializes the predecoder and its stall lands fully on
	// the critical path; an isolated LCP's stall is counted in full but
	// overlaps with neighbouring delivery (LCPOverlapCharge of it is
	// charged).
	LCPStallIsolated float64
	LCPStallChained  float64
	LCPOverlapCharge float64

	// Redirect costs.
	MispredictPenalty float64
	L1IMissPenalty    float64
	// MITERedirectBubble is the refetch bubble after a taken branch
	// decoded through the legacy pipeline; the DSB hides it, which is part
	// of why the MITE path is the slow one (Figure 2).
	MITERedirectBubble float64
	// PauseCycles is the delivery stall charged per pause instruction
	// (the x86 spin-wait hint costs ~140 cycles on Skylake).
	PauseCycles float64
	// DSBCrossPenalty is the extra delivery cost of a window-crossing
	// (misaligned) instruction served from the DSB: the micro-ops live
	// in two lines that must both be read (Section IV-G).
	DSBCrossPenalty float64
}

// DefaultParams returns the Skylake-family configuration used by every
// CPU model in Table I.
func DefaultParams() Params {
	return Params{
		DSBLineUOps:         6,
		DSBLinesPerWindow:   3,
		LSDCapacityUOps:     64,
		LSDWindowSlots:      8,
		LSDMaxCrossings:     3,
		LSDPoisonCap:        20,
		LSDLockIterations:   2,
		LSDJumpBubble:       2.0,
		DeliverWidth:        6,
		DecodeWidth:         5,
		FetchBytes:          16,
		IDQCapacity:         64,
		SwitchPenalty:       2.0,
		SwitchResidual:      0.25,
		SwitchOverlapCharge: 0.15,
		LCPStallIsolated:    2.56,
		LCPStallChained:     3.0,
		LCPOverlapCharge:    0.12,
		MispredictPenalty:   14,
		L1IMissPenalty:      30,
		MITERedirectBubble:  1.5,
		PauseCycles:         140,
		DSBCrossPenalty:     1.0,
	}
}

// ThreadCounters aggregates per-hardware-thread frontend events. The
// micro-op-per-path counters are the ones Figure 4 reports; the stall
// cycle counters are the timing signal of every attack.
type ThreadCounters struct {
	UOpsLSD  uint64
	UOpsDSB  uint64
	UOpsMITE uint64

	StallCycles    uint64
	IdleCycles     uint64
	DeliveryCycles uint64
	LCPStallCycles float64
	SwitchCycles   float64
	SwitchCount    uint64
	Mispredicts    uint64
	L1IMisses      uint64
}

// UOps returns total micro-ops delivered on this thread.
func (c ThreadCounters) UOps() uint64 { return c.UOpsLSD + c.UOpsDSB + c.UOpsMITE }

// Add returns the field-wise sum of c and o (used to aggregate the two
// hardware threads' activity for package-level power accounting).
func (c ThreadCounters) Add(o ThreadCounters) ThreadCounters {
	return ThreadCounters{
		UOpsLSD:        c.UOpsLSD + o.UOpsLSD,
		UOpsDSB:        c.UOpsDSB + o.UOpsDSB,
		UOpsMITE:       c.UOpsMITE + o.UOpsMITE,
		StallCycles:    c.StallCycles + o.StallCycles,
		IdleCycles:     c.IdleCycles + o.IdleCycles,
		DeliveryCycles: c.DeliveryCycles + o.DeliveryCycles,
		LCPStallCycles: c.LCPStallCycles + o.LCPStallCycles,
		SwitchCycles:   c.SwitchCycles + o.SwitchCycles,
		SwitchCount:    c.SwitchCount + o.SwitchCount,
		Mispredicts:    c.Mispredicts + o.Mispredicts,
		L1IMisses:      c.L1IMisses + o.L1IMisses,
	}
}

// Sub returns the event delta c - o.
func (c ThreadCounters) Sub(o ThreadCounters) ThreadCounters {
	return ThreadCounters{
		UOpsLSD:        c.UOpsLSD - o.UOpsLSD,
		UOpsDSB:        c.UOpsDSB - o.UOpsDSB,
		UOpsMITE:       c.UOpsMITE - o.UOpsMITE,
		StallCycles:    c.StallCycles - o.StallCycles,
		IdleCycles:     c.IdleCycles - o.IdleCycles,
		DeliveryCycles: c.DeliveryCycles - o.DeliveryCycles,
		LCPStallCycles: c.LCPStallCycles - o.LCPStallCycles,
		SwitchCycles:   c.SwitchCycles - o.SwitchCycles,
		SwitchCount:    c.SwitchCount - o.SwitchCount,
		Mispredicts:    c.Mispredicts - o.Mispredicts,
		L1IMisses:      c.L1IMisses - o.L1IMisses,
	}
}

// advance moves c forward by k more repetitions of its change since
// prev: each integer counter grows by k more times its growth, and each
// float counter, whose sum rounds, is left with the bits of adding its
// logged addends, lcp or sw, again in order, k times over (fsum.Repeat
// adds the whole repetitions in closed form).
func (c *ThreadCounters) advance(prev *ThreadCounters, k uint64, lcp, sw []float64) {
	c.UOpsLSD += k * (c.UOpsLSD - prev.UOpsLSD)
	c.UOpsDSB += k * (c.UOpsDSB - prev.UOpsDSB)
	c.UOpsMITE += k * (c.UOpsMITE - prev.UOpsMITE)
	c.StallCycles += k * (c.StallCycles - prev.StallCycles)
	c.IdleCycles += k * (c.IdleCycles - prev.IdleCycles)
	c.DeliveryCycles += k * (c.DeliveryCycles - prev.DeliveryCycles)
	c.SwitchCount += k * (c.SwitchCount - prev.SwitchCount)
	c.Mispredicts += k * (c.Mispredicts - prev.Mispredicts)
	c.L1IMisses += k * (c.L1IMisses - prev.L1IMisses)
	c.LCPStallCycles = fsum.Repeat(c.LCPStallCycles, lcp, k)
	c.SwitchCycles = fsum.Repeat(c.SwitchCycles, sw, k)
}
