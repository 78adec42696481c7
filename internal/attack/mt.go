package attack

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/runctx"
	"repro/internal/stats"
)

// MTConfig parameterizes the cross-thread channels of Sections V-A and
// V-B: sender and receiver on the two hardware threads of one core.
type MTConfig struct {
	Model cpu.Model
	Kind  Kind
	// D is the receiver way count; M the misalignment total.
	D, M int
	// QBase scales the per-bit encode repetitions. The effective count
	// is QBase/(1.4+d): a receiver probing more ways gets proportionally
	// more signal per pass, so fewer sender repetitions are needed —
	// which is why the paper's Figure 8 transmission rate *rises* with d.
	QBase int
	// Measurements is how many timed decode passes the receiver averages
	// per bit (the paper's p/q = 10).
	Measurements int
	// ContendedSender makes the eviction sender spin on a delivery-hungry
	// nop pad instead of pausing between steps. Small-d receivers (the
	// Table II d=1 configuration) need the resulting bandwidth contention
	// to carry the bit, since a single way's eviction signal is tiny.
	ContendedSender bool
	Seed            uint64
}

// DefaultMT returns the paper's MT configuration for a variant (d=6
// eviction / d=5, M=8 misalignment; Section VI-C).
func DefaultMT(model cpu.Model, kind Kind) MTConfig {
	cfg := MTConfig{
		Model:        model,
		Kind:         kind,
		D:            DefaultD,
		M:            DefaultM,
		QBase:        800,
		Measurements: DefaultMeasurements,
		Seed:         1,
	}
	if kind == Misalignment {
		cfg.D = DefaultMisalignD
	}
	return cfg
}

// MT is a cross-hyper-thread covert channel. The receiver continuously
// times passes over its d blocks on thread 0; for bit 1 the sender
// executes its blocks on thread 1, which partitions the DSB (evicting
// the receiver's windows for the eviction variant) and/or poisons the
// shared LSD alignment tracker (for the misalignment variant); for bit 0
// the sender stays idle (Sections V-A, V-B).
type MT struct {
	cfg  MTConfig
	core *cpu.Core
	rc   runctx.Ctx

	recv   []*isa.Block
	sender []*isa.Block
	q      int

	recvFlat, senderFlat []isa.Inst

	// measBuf collects the receiver's per-bit timing passes; measCb is
	// the completion callback appending to it. Both are built once so
	// SendBit's measurement loop allocates neither slice nor closure.
	measBuf []float64
	measCb  func(v float64)

	// Bit-history state: the paper observes that constant messages keep
	// the sender on one frontend path and transmit with less noise,
	// while random messages suffer from "frequent and unstable frontend
	// path changes" (Section VI-D). Transitions — and especially
	// irregular transition patterns — scale the desync noise and force
	// protocol resynchronization slots.
	hasPrev   bool
	hasPrev2  bool
	prevBit   byte
	prevTrans bool
}

// NewMT builds the channel. It panics for models without hyper-threading
// (the paper's E-2288G rows are empty for this reason).
func NewMT(cfg MTConfig) *MT {
	checkHT(cfg.Model)
	a := &MT{cfg: cfg, core: cpu.NewCore(cfg.Model, cfg.Seed)}

	// Set choice is the crux (Section IV-B): the eviction channel targets
	// a set the receiver *loses* when the DSB partitions; the
	// misalignment channel targets one it keeps, so only the LSD path
	// changes.
	set := evictionSet
	aligned := true
	count := isa.DSBWays + 1 - cfg.D
	if cfg.Kind == Misalignment {
		set = misalignSet
		aligned = false
		count = cfg.M - cfg.D
	}
	a.recv = chain(receiverBlocks(set, cfg.D))

	// The sender's encode step: its blocks plus a per-step pad. The
	// eviction sender paces its evictions with a pause handshake (the
	// receiver must observe each eviction between passes); the
	// misalignment sender instead spins on a nop pad, staying
	// delivery-hungry so the shared alignment tracker stays poisoned and
	// the receiver stays contended for the whole slot.
	sb := senderBlocks(set, cfg.D, count, aligned)
	var pad *isa.Block
	effD := cfg.D
	if cfg.Kind == Eviction {
		if cfg.ContendedSender {
			pad = isa.NopBlockLen(isa.AddrForSet(pauseSetBase, 16+cfg.D), 280, 2)
		} else {
			pad = isa.PauseBlock(isa.AddrForSet(pauseSetBase, 16+cfg.D), 1)
		}
	} else {
		pad = isa.NopBlockLen(isa.AddrForSet(pauseSetBase, 16+cfg.D), 280, 2)
		// Misaligned blocks double-cover windows, so each receiver pass
		// carries more signal and fewer encode steps are needed.
		effD = cfg.D + 2
	}
	a.sender = chain(sb, []*isa.Block{pad})

	a.q = cfg.QBase * 10 / (14 + 10*effD)
	if a.q < 2 {
		a.q = 2
	}
	a.recvFlat = isa.Flatten(a.recv)
	a.senderFlat = isa.Flatten(a.sender)
	a.measBuf = make([]float64, 0, cfg.Measurements)
	a.measCb = func(v float64) { a.measBuf = append(a.measBuf, v) }
	return a
}

// BindCtx implements channel.CtxAware: SendBit aborts between its
// receiver measurement passes once rc is cancelled. The aborted bit's
// measurement is discarded by the caller, so the early return never
// reaches a result.
func (a *MT) BindCtx(rc runctx.Ctx) { a.rc = rc }

// Name implements channel.BitChannel.
func (a *MT) Name() string { return fmt.Sprintf("MT %s", a.cfg.Kind) }

// FreqGHz implements channel.BitChannel.
func (a *MT) FreqGHz() float64 { return a.cfg.Model.FreqGHz }

// Cycles implements channel.BitChannel.
func (a *MT) Cycles() uint64 { return a.core.Cycle() }

// Core exposes the underlying core (experiments, tests).
func (a *MT) Core() *cpu.Core { return a.core }

// Q returns the per-bit encode repetition count in effect.
func (a *MT) Q() int { return a.q }

// ReceiverBlocks returns the receiver's decode loop.
func (a *MT) ReceiverBlocks() []*isa.Block { return a.recv }

// SenderBlocks returns the sender's encode loop.
func (a *MT) SenderBlocks() []*isa.Block { return a.sender }

// SGXSenderChain builds the MT sender loop for an enclave sender: the
// same encode blocks but with a small nop pad instead of the protocol
// pause (an enclave sender free-runs; the pad models the memory
// encryption engine's code-fetch overhead).
func SGXSenderChain(cfg MTConfig, padNops int) []*isa.Block {
	set := evictionSet
	aligned := true
	count := isa.DSBWays + 1 - cfg.D
	if cfg.Kind == Misalignment {
		set = misalignSet
		aligned = false
		count = cfg.M - cfg.D
	}
	sb := senderBlocks(set, cfg.D, count, aligned)
	pad := isa.NopBlockLen(isa.AddrForSet(pauseSetBase, 24+cfg.D), padNops, 2)
	return chain(sb, []*isa.Block{pad})
}

// SendBit implements channel.BitChannel: the sender encodes (or idles)
// on thread 1 while the receiver takes its timed decode passes on
// thread 0; the bit measurement is the mean of the receiver's passes.
func (a *MT) SendBit(m byte) float64 {
	transition := a.hasPrev && m != a.prevBit
	irregular := a.hasPrev2 && transition != a.prevTrans
	a.hasPrev2 = a.hasPrev
	a.hasPrev = true
	a.prevBit = m
	a.prevTrans = transition

	slotStart := a.core.Cycle()
	if m == '1' {
		a.core.Enqueue(1, isa.NewFlatLoopStream(a.senderFlat, a.q), nil)
	}
	iters := a.q / a.cfg.Measurements
	if iters < 2 {
		iters = 2
	}
	a.measBuf = a.measBuf[:0]
	for i := 0; i < a.cfg.Measurements; i++ {
		if a.rc.Err() != nil {
			return 0 // cancelled: the caller discards this bit
		}
		a.core.MeasureEnqueue(0, isa.NewFlatLoopStream(a.recvFlat, iters), a.measCb)
	}
	a.core.RunUntilIdle(500_000_000)
	// The protocol advances on fixed slot boundaries: a bit's slot is q
	// encode steps long whether or not the sender transmitted, so the
	// receiver pads out the remainder before the next bit.
	slot := uint64(float64(a.q) * a.cfg.Model.MTStepCycles)
	if used := a.core.Cycle() - slotStart; used < slot {
		a.core.RunCycles(slot - used)
	}
	// Normalize per receiver pass so the threshold is iteration-count
	// independent, and add the cross-thread desynchronization noise. The
	// eviction channel's signal rides on partition-toggle timing, so it
	// sees the full desync noise; the misalignment receiver keeps its DSB
	// lines across toggles and is less sensitive (Table III's error gap
	// between the two MT channels).
	noise := a.cfg.Model.MTNoisePerPass
	if a.cfg.Kind == Misalignment {
		noise *= 0.55
	}
	// Path-change noise scaling (Section VI-D) and resynchronization
	// cost for irregular transition patterns (random messages).
	switch {
	case !transition:
		noise *= 0.25
	case irregular:
		noise *= 1.7
		a.core.RunCycles(uint64(1.2 * float64(a.q) * a.cfg.Model.MTStepCycles))
	default:
		// Regular transitions (the alternating calibration pattern)
		// resynchronize cheaply.
		noise *= 0.6
	}
	return stats.Mean(a.measBuf)/float64(iters) + a.core.R.NormScaled(0, noise)
}
