package attack

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
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
	// per bit (the paper's p/q = 10); a non-positive count takes
	// DefaultMeasurements.
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
	rig
	cfg MTConfig
	q   int

	// The receiver's decode loop and the sender's encode loop.
	recv, sender []isa.Inst

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
func NewMT(cfg MTConfig) *MT { return newMT(cfg, false) }

// newMT builds an MT channel whose sender runs inside an enclave or
// outside one.
func newMT(cfg MTConfig, enclave bool) *MT {
	checkHT(cfg.Model)
	if cfg.Measurements <= 0 {
		cfg.Measurements = DefaultMeasurements
	}
	// Set choice is the crux (Section IV-B): the eviction channel targets
	// a set the receiver *loses* when the DSB partitions; the
	// misalignment channel targets one it keeps, so only the LSD path
	// changes.
	set, count, aligned, effD := evictionSet, isa.DSBWays+1-cfg.D, true, cfg.D
	if cfg.Kind == Misalignment {
		// Misaligned blocks double-cover windows, so each receiver pass
		// carries more signal and fewer encode steps are needed.
		set, count, aligned, effD = misalignSet, cfg.M-cfg.D, false, cfg.D+2
	}
	// The sender's encode step: its blocks plus a per-step pad. The
	// eviction sender paces its evictions with a pause handshake (the
	// receiver must observe each eviction between passes); the
	// misalignment and contended senders instead spin on a nop pad,
	// staying delivery-hungry so the shared alignment tracker stays
	// poisoned and the receiver stays contended for the whole slot. An
	// enclave sender free-runs on a smaller nop pad, which models the
	// memory encryption engine's code-fetch overhead.
	var pad *isa.Block
	switch {
	case enclave:
		pad = isa.NopBlockLen(isa.AddrForSet(pauseSetBase, 24+cfg.D), 250, 2)
	case cfg.Kind == Eviction && !cfg.ContendedSender:
		pad = isa.PauseBlock(isa.AddrForSet(pauseSetBase, 16+cfg.D), 1)
	default:
		pad = isa.NopBlockLen(isa.AddrForSet(pauseSetBase, 16+cfg.D), 280, 2)
	}
	return &MT{
		rig:    rig{core: cpu.NewCore(cfg.Model, cfg.Seed)},
		cfg:    cfg,
		q:      max(cfg.QBase*10/(14+10*effD), 2),
		recv:   loop(ways(set, 0, cfg.D, true)),
		sender: loop(ways(set, cfg.D, count, aligned), []*isa.Block{pad}),
	}
}

// Name implements channel.BitChannel.
func (a *MT) Name() string { return fmt.Sprintf("MT %s", a.cfg.Kind) }

// Q returns the per-bit encode repetition count in effect.
func (a *MT) Q() int { return a.q }

// receive queues the receiver's timed decode passes of iters
// iterations each on thread 0, runs the core until both threads drain,
// and returns the passes' mean reading per iteration, so the threshold
// is iteration-count independent.
func (a *MT) receive(iters int) float64 {
	for range a.cfg.Measurements {
		a.core.MeasureEnqueue(0, isa.NewFlatLoopStream(a.recv, iters))
	}
	a.core.RunUntilIdle(2_000_000_000)
	return a.core.Measured(0) / float64(iters)
}

// noise is the standard deviation of the cross-thread desynchronization
// noise on one pass. The eviction channel's signal rides on
// partition-toggle timing, so it sees the full desync noise; the
// misalignment receiver keeps its DSB lines across toggles and is less
// sensitive (Table III's error gap between the two MT channels).
func (a *MT) noise() float64 {
	if a.cfg.Kind == Misalignment {
		return a.cfg.Model.MTNoisePerPass * 0.55
	}
	return a.cfg.Model.MTNoisePerPass
}

// SendBit implements channel.BitChannel: the sender encodes (or idles)
// on thread 1 while the receiver takes its timed decode passes on
// thread 0; the bit measurement is the mean of the receiver's passes.
func (a *MT) SendBit(m byte) float64 {
	if a.rc.Err() != nil {
		return 0 // cancelled: the caller discards this bit
	}
	transition := a.hasPrev && m != a.prevBit
	irregular := a.hasPrev2 && transition != a.prevTrans
	a.hasPrev2 = a.hasPrev
	a.hasPrev = true
	a.prevBit = m
	a.prevTrans = transition

	slotStart := a.core.Cycle()
	if m == '1' {
		a.core.Enqueue(1, isa.NewFlatLoopStream(a.sender, a.q), nil)
	}
	pass := a.receive(max(a.q/a.cfg.Measurements, 2))
	// The protocol advances on fixed slot boundaries: a bit's slot is q
	// encode steps long whether or not the sender transmitted, so the
	// receiver pads out the remainder before the next bit.
	slot := uint64(float64(a.q) * a.cfg.Model.MTStepCycles)
	if used := a.core.Cycle() - slotStart; used < slot {
		a.core.RunCycles(slot - used)
	}
	// Path-change noise scaling (Section VI-D) and resynchronization
	// cost for irregular transition patterns (random messages).
	noise := a.noise()
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
	return pass + a.core.R.NormScaled(0, noise)
}
