package attack

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/rng"
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
	rig
	bitLoops
	cfg PowerConfig
	r   rng.RNG // the RAPL noise, held inline so a copy draws on alone
}

// NewPower builds the channel using the non-MT stealthy block layout
// (the paper's power attack is "similar to the non-MT attack
// demonstrated in Section V-C").
func NewPower(cfg PowerConfig) *Power {
	return &Power{
		rig:      rig{core: cpu.NewCore(cfg.Model, cfg.Seed)},
		bitLoops: encodeLoops(cfg.Kind, cfg.Set, cfg.D, cfg.M, true),
		cfg:      cfg,
		r:        *rng.New(cfg.Seed).Fork(7),
	}
}

// Name implements channel.BitChannel.
func (a *Power) Name() string {
	return fmt.Sprintf("Non-MT Power %s", a.cfg.Kind)
}

// SendBit implements channel.BitChannel: it runs the per-bit loop and
// returns the average package watts observed through RAPL over the bit
// window, plus the model's power measurement noise.
func (a *Power) SendBit(m byte) float64 {
	if a.rc.Err() != nil {
		return 0 // cancelled: the caller discards this bit
	}
	e0, c0 := a.core.PM.RAPLRead(), a.core.Cycle()
	a.core.Enqueue(0, isa.NewFlatLoopStream(a.bit(m), a.cfg.Iters), nil)
	a.core.RunUntilIdle(2_000_000_000)
	watts := power.AvgWatts(a.core.PM.RAPLRead()-e0, a.core.Cycle()-c0)
	return watts + a.r.NormScaled(0, a.cfg.Model.PowerNoiseWatts)
}
