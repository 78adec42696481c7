package attack

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
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

// bitLoops are a single-threaded channel's per-iteration loops for a 1
// and a 0 bit.
type bitLoops struct{ one, zero []isa.Inst }

// bit returns the loop that encodes m.
func (l *bitLoops) bit(m byte) []isa.Inst {
	if m == '0' {
		return l.zero
	}
	return l.one
}

// encodeLoops builds the loops of the non-MT channels on DSB set x
// (Sections V-C, V-D, VII): the receiver's d aligned blocks, then the
// sender's. For a 1, N+1-d more blocks in the set force the eviction
// (Section IV-F), or M-d misaligned ones collide in the LSD without
// exceeding the ways (Section IV-G). For a 0 the stealthy encoding runs
// the same work harmlessly — in another set y, or aligned — and the
// fast one runs the receiver's blocks alone.
func encodeLoops(kind Kind, set, d, m int, stealthy bool) bitLoops {
	extra, aligned, zeroSet := isa.DSBWays+1-d, true, altSet
	if kind == Misalignment {
		extra, aligned, zeroSet = m-d, false, set
	}
	l := bitLoops{one: loop(ways(set, 0, d, true), ways(set, d, extra, aligned))}
	if stealthy {
		l.zero = loop(ways(set, 0, d, true), ways(zeroSet, d, extra, true))
	} else {
		l.zero = loop(ways(set, 0, d, true))
	}
	return l
}

// NonMT is a single-threaded covert channel: sender and receiver share
// one hardware thread and the receiver times the sender's whole
// init/encode/decode sequence (Section V-C, Figure 7).
type NonMT struct {
	rig
	bitLoops
	cfg NonMTConfig
}

// NewNonMT builds the channel and its block layout.
func NewNonMT(cfg NonMTConfig) *NonMT {
	if cfg.D <= 0 || cfg.D > isa.DSBWays {
		panic(fmt.Sprintf("attack: d=%d out of range", cfg.D))
	}
	return &NonMT{
		rig:      rig{core: cpu.NewCore(cfg.Model, cfg.Seed)},
		bitLoops: encodeLoops(cfg.Kind, cfg.Set, cfg.D, cfg.M, cfg.Stealthy),
		cfg:      cfg,
	}
}

// variant names the channel's bit-0 encoding and mechanism.
func (a *NonMT) variant() string {
	if a.cfg.Stealthy {
		return "Stealthy " + a.cfg.Kind.String()
	}
	return "Fast " + a.cfg.Kind.String()
}

// Name implements channel.BitChannel.
func (a *NonMT) Name() string { return "Non-MT " + a.variant() }

// SendBit runs p iterations of the init/encode/decode loop for one bit
// and returns the receiver's timing measurement of the whole sequence.
func (a *NonMT) SendBit(m byte) float64 {
	if a.rc.Err() != nil {
		return 0 // cancelled: the caller discards this bit
	}
	if m != '0' || a.cfg.Stealthy {
		// The encode step's handshake occupies wall time; the fast
		// variant skips it on zero bits, which is its rate edge.
		a.core.RunCycles(uint64(a.cfg.Model.StepOverheadCycles))
	}
	return a.core.RunTimed(0, isa.NewFlatLoopStream(a.bit(m), a.cfg.P))
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
	rig
	cfg            SlowSwitchConfig
	mixed, ordered []isa.Inst
}

// NewSlowSwitch builds the channel. The two encodings live at different
// addresses, as two code paths of one sender binary would.
func NewSlowSwitch(cfg SlowSwitchConfig) *SlowSwitch {
	return &SlowSwitch{
		rig:     rig{core: cpu.NewCore(cfg.Model, cfg.Seed)},
		cfg:     cfg,
		mixed:   loop([]*isa.Block{isa.LCPBlock(isa.AddrForSet(2, 16), cfg.R, true)}),
		ordered: loop([]*isa.Block{isa.LCPBlock(isa.AddrForSet(24, 24), cfg.R, false)}),
	}
}

// Name implements channel.BitChannel.
func (a *SlowSwitch) Name() string { return "Non-MT Slow-Switch-Based" }

// SendBit implements channel.BitChannel.
func (a *SlowSwitch) SendBit(m byte) float64 {
	if a.rc.Err() != nil {
		return 0 // cancelled: the caller discards this bit
	}
	flat := a.ordered
	if m == '1' {
		flat = a.mixed
	}
	return a.core.RunTimed(0, isa.NewFlatLoopStream(flat, a.cfg.P))
}
