package attack

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/runctx"
)

// PowerConfig parameterizes the power-based non-MT channels of
// Section VII: identical block layout to the timing channels, but the
// receiver reads Intel RAPL instead of rdtscp. Because RAPL updates only
// every ~50us, each bit needs orders of magnitude more iterations
// (p = q = 240,000 in the paper), which caps the channel below 1 Kbps
// (Table V).
type PowerConfig struct {
	Model cpu.Model
	Kind  Kind
	D, M  int
	// Iters is the per-bit iteration count. The paper uses 240,000; the
	// benchmarks default to half that to keep runtimes reasonable — the
	// rate scales accordingly and EXPERIMENTS.md records the setting.
	Iters int
	Set   int
	Seed  uint64
}

// DefaultPower returns the power-channel configuration (d=6, Table V).
func DefaultPower(model cpu.Model, kind Kind) PowerConfig {
	cfg := PowerConfig{Model: model, Kind: kind, D: DefaultD, M: DefaultM, Iters: DefaultPowerIters, Set: evictionSet, Seed: 1}
	if kind == Misalignment {
		cfg.D = DefaultMisalignD
	}
	return cfg
}

// Power is a power-based covert channel: bits modulate which frontend
// path delivers micro-ops, and the receiver observes the package power
// difference through the quantized, interval-updated RAPL counter.
type Power struct {
	cfg  PowerConfig
	core *cpu.Core
	r    rng.RNG // the RAPL noise, held inline so a copy draws on alone
	rc   runctx.Ctx

	one  []*isa.Block
	zero []*isa.Block

	oneFlat, zeroFlat []isa.Inst
}

// NewPower builds the channel using the non-MT stealthy block layout
// (the paper's power attack is "similar to the non-MT attack
// demonstrated in Section V-C").
func NewPower(cfg PowerConfig) *Power {
	p := &Power{cfg: cfg, core: cpu.NewCore(cfg.Model, cfg.Seed)}
	p.r = *rng.New(cfg.Seed).Fork(7)
	switch cfg.Kind {
	case Eviction:
		extra := isa.DSBWays + 1 - cfg.D
		p.one = chain(receiverBlocks(cfg.Set, cfg.D), senderBlocks(cfg.Set, cfg.D, extra, true))
		p.zero = chain(receiverBlocks(cfg.Set, cfg.D), senderBlocks(altSet, cfg.D, extra, true))
	case Misalignment:
		extra := cfg.M - cfg.D
		p.one = chain(receiverBlocks(cfg.Set, cfg.D), senderBlocks(cfg.Set, cfg.D, extra, false))
		p.zero = chain(receiverBlocks(cfg.Set, cfg.D), senderBlocks(cfg.Set, cfg.D, extra, true))
	}
	p.oneFlat = isa.Flatten(p.one)
	p.zeroFlat = isa.Flatten(p.zero)
	return p
}

// BindCtx implements channel.CtxAware. A power bit is the stack's most
// expensive SendBit (>100k loop iterations), so skipping a cancelled
// bit up front matters most here.
func (p *Power) BindCtx(rc runctx.Ctx) { p.rc = rc }

// Name implements channel.BitChannel.
func (p *Power) Name() string {
	return fmt.Sprintf("Non-MT Power %s", p.cfg.Kind)
}

// FreqGHz implements channel.BitChannel.
func (p *Power) FreqGHz() float64 { return p.cfg.Model.FreqGHz }

// Cycles implements channel.BitChannel.
func (p *Power) Cycles() uint64 { return p.core.Cycle() }

// Core exposes the underlying core (experiments, tests).
func (p *Power) Core() *cpu.Core { return p.core }

// SendBit implements channel.BitChannel: it runs the per-bit loop and
// returns the average package watts observed through RAPL over the bit
// window, plus the model's power measurement noise.
func (p *Power) SendBit(m byte) float64 {
	if p.rc.Err() != nil {
		return 0 // cancelled: the caller discards this bit
	}
	flat := p.oneFlat
	if m == '0' {
		flat = p.zeroFlat
	}
	e0 := p.core.PM.RAPLRead()
	c0 := p.core.Cycle()
	p.core.Enqueue(0, isa.NewFlatLoopStream(flat, p.cfg.Iters), nil)
	p.core.RunUntilIdle(2_000_000_000)
	e1 := p.core.PM.RAPLRead()
	watts := power.AvgWatts(e1-e0, p.core.Cycle()-c0)
	return watts + p.r.NormScaled(0, p.cfg.Model.PowerNoiseWatts)
}
