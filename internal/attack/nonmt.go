package attack

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/runctx"
)

// NonMTConfig parameterizes the single-threaded internal-interference
// channels of Sections V-C and V-D.
type NonMTConfig struct {
	Model cpu.Model
	Kind  Kind
	// Stealthy selects the bit-0 encoding that still executes blocks
	// (mapping elsewhere / aligned) instead of doing nothing; it trades
	// bandwidth for stealth (Section V-C).
	Stealthy bool
	// D is the receiver's way count d; M the total ways for the
	// misalignment variant.
	D, M int
	// P is the per-bit iteration count (p = q = 10 in the paper).
	P int
	// Set is the target DSB set x.
	Set  int
	Seed uint64
}

// DefaultNonMT returns the paper's configuration for the given variant
// (d=6 for eviction; d=5, M=8 for misalignment; p=q=10; Section VI).
func DefaultNonMT(model cpu.Model, kind Kind, stealthy bool) NonMTConfig {
	cfg := NonMTConfig{
		Model:    model,
		Kind:     kind,
		Stealthy: stealthy,
		D:        DefaultD,
		M:        DefaultM,
		P:        DefaultP,
		Set:      evictionSet,
		Seed:     1,
	}
	if kind == Misalignment {
		cfg.D = DefaultMisalignD
	}
	return cfg
}

// NonMT is a single-threaded covert channel: sender and receiver share
// one hardware thread and the receiver times the sender's whole
// init/encode/decode sequence (Section V-C, Figure 7).
type NonMT struct {
	cfg  NonMTConfig
	core *cpu.Core
	rc   runctx.Ctx

	one  []*isa.Block // per-iteration loop when sending 1
	zero []*isa.Block // per-iteration loop when sending 0 (nil = fast variant, receiver-only)
	base []*isa.Block // receiver-only loop

	// Pre-flattened instruction sequences of the loops above; SendBit
	// wraps these instead of re-flattening the blocks every bit.
	oneFlat, zeroFlat, baseFlat []isa.Inst
}

// NewNonMT builds the channel and its block layout.
func NewNonMT(cfg NonMTConfig) *NonMT {
	if cfg.D <= 0 || cfg.D > isa.DSBWays {
		panic(fmt.Sprintf("attack: d=%d out of range", cfg.D))
	}
	a := &NonMT{cfg: cfg, core: cpu.NewCore(cfg.Model, cfg.Seed)}
	recv := receiverBlocks(cfg.Set, cfg.D)

	switch cfg.Kind {
	case Eviction:
		// Encode-1: N+1-d extra blocks in the same set force the
		// eviction (Section IV-F).
		extra := isa.DSBWays + 1 - cfg.D
		a.one = chain(receiverBlocks(cfg.Set, cfg.D), senderBlocks(cfg.Set, cfg.D, extra, true))
		if cfg.Stealthy {
			// Encode-0: same work, different set y (Section V-C).
			a.zero = chain(receiverBlocks(cfg.Set, cfg.D), senderBlocks(altSet, cfg.D, extra, true))
		}
	case Misalignment:
		// Encode-1: M-d misaligned blocks collide in the LSD without
		// exceeding the DSB ways (Section IV-G, V-D).
		extra := cfg.M - cfg.D
		a.one = chain(receiverBlocks(cfg.Set, cfg.D), senderBlocks(cfg.Set, cfg.D, extra, false))
		if cfg.Stealthy {
			// Encode-0: the same blocks, aligned.
			a.zero = chain(receiverBlocks(cfg.Set, cfg.D), senderBlocks(cfg.Set, cfg.D, extra, true))
		}
	}
	a.base = chain(recv)
	a.oneFlat = isa.Flatten(a.one)
	a.baseFlat = isa.Flatten(a.base)
	if a.zero != nil {
		a.zeroFlat = isa.Flatten(a.zero)
	}
	return a
}

// BindCtx implements channel.CtxAware.
func (a *NonMT) BindCtx(rc runctx.Ctx) { a.rc = rc }

// Name implements channel.BitChannel.
func (a *NonMT) Name() string {
	mode := "Fast"
	if a.cfg.Stealthy {
		mode = "Stealthy"
	}
	return fmt.Sprintf("Non-MT %s %s", mode, a.cfg.Kind)
}

// FreqGHz implements channel.BitChannel.
func (a *NonMT) FreqGHz() float64 { return a.cfg.Model.FreqGHz }

// Cycles implements channel.BitChannel.
func (a *NonMT) Cycles() uint64 { return a.core.Cycle() }

// Core exposes the underlying core (experiments, tests).
func (a *NonMT) Core() *cpu.Core { return a.core }

// BlocksOne returns the per-iteration loop used to encode a 1 bit.
func (a *NonMT) BlocksOne() []*isa.Block { return a.one }

// BlocksZero returns the stealthy 0-bit loop, or nil for the fast
// variant.
func (a *NonMT) BlocksZero() []*isa.Block { return a.zero }

// BlocksBase returns the receiver-only loop (fast variant's 0 bit).
func (a *NonMT) BlocksBase() []*isa.Block { return a.base }

// SendBit runs p iterations of the init/encode/decode loop for one bit
// and returns the receiver's timing measurement of the whole sequence.
func (a *NonMT) SendBit(m byte) float64 {
	flat := a.oneFlat
	encodeRan := true
	if m == '0' {
		flat = a.zeroFlat
		if flat == nil {
			flat = a.baseFlat // fast variant: encode-0 does nothing
			encodeRan = false
		}
	}
	if a.rc.Err() != nil {
		return 0 // cancelled: the caller discards this bit
	}
	if encodeRan {
		// The encode step's handshake occupies wall time; the fast
		// variant skips it on zero bits, which is its rate edge.
		a.core.RunCycles(uint64(a.cfg.Model.StepOverheadCycles))
	}
	return a.core.RunTimed(0, isa.NewFlatLoopStream(flat, a.cfg.P))
}

// SlowSwitchConfig parameterizes the LCP slow-switch channel of
// Section V-E.
type SlowSwitchConfig struct {
	Model cpu.Model
	// R is the LCP instruction count r (16 in the paper).
	R int
	// P is the per-bit loop count.
	P    int
	Seed uint64
}

// DefaultSlowSwitch returns the paper's r=16, p=q=10 configuration.
func DefaultSlowSwitch(model cpu.Model) SlowSwitchConfig {
	return SlowSwitchConfig{Model: model, R: 16, P: DefaultP, Seed: 1}
}

// SlowSwitch is the LCP-based covert channel: bit 1 executes the
// alternating normal/LCP add pattern ("mixed issue"), bit 0 the grouped
// pattern ("ordered issue"); their LCP-stall and switch-penalty profiles
// differ measurably (Section V-E, Figure 4).
type SlowSwitch struct {
	cfg     SlowSwitchConfig
	core    *cpu.Core
	rc      runctx.Ctx
	mixed   []*isa.Block
	ordered []*isa.Block

	mixedFlat, orderedFlat []isa.Inst
}

// NewSlowSwitch builds the channel. The two encodings live at different
// addresses, as two code paths of one sender binary would.
func NewSlowSwitch(cfg SlowSwitchConfig) *SlowSwitch {
	mixed := []*isa.Block{isa.LCPBlock(isa.AddrForSet(2, 16), cfg.R, true)}
	ordered := []*isa.Block{isa.LCPBlock(isa.AddrForSet(24, 24), cfg.R, false)}
	isa.ChainLoop(mixed)
	isa.ChainLoop(ordered)
	return &SlowSwitch{
		cfg:         cfg,
		core:        cpu.NewCore(cfg.Model, cfg.Seed),
		mixed:       mixed,
		ordered:     ordered,
		mixedFlat:   isa.Flatten(mixed),
		orderedFlat: isa.Flatten(ordered),
	}
}

// BindCtx implements channel.CtxAware.
func (s *SlowSwitch) BindCtx(rc runctx.Ctx) { s.rc = rc }

// Name implements channel.BitChannel.
func (s *SlowSwitch) Name() string { return "Non-MT Slow-Switch-Based" }

// FreqGHz implements channel.BitChannel.
func (s *SlowSwitch) FreqGHz() float64 { return s.cfg.Model.FreqGHz }

// Cycles implements channel.BitChannel.
func (s *SlowSwitch) Cycles() uint64 { return s.core.Cycle() }

// SendBit implements channel.BitChannel.
func (s *SlowSwitch) SendBit(m byte) float64 {
	if s.rc.Err() != nil {
		return 0 // cancelled: the caller discards this bit
	}
	flat := s.orderedFlat
	if m == '1' {
		flat = s.mixedFlat
	}
	return s.core.RunTimed(0, isa.NewFlatLoopStream(flat, s.cfg.P))
}
