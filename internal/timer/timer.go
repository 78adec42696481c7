// Package timer models the attacker's clocks: the rdtscp timestamp
// counter used by all timing attacks (Section III: "all of the
// timing-based attacks can be performed fully from the user-level
// privilege using the rdtscp instruction"), and the deliberately
// low-resolution timer the application-fingerprinting side channel is
// restricted to (Section XI: 10 Hz sampling because "existing platforms
// limit the usage of high-precision timers").
//
// Real measurements carry noise from interrupts, SMT interference, and
// frequency transitions; TSC injects a calibrated Gaussian equivalent so
// the reproduction's covert channels exhibit the paper's error rates
// rather than decoding perfectly.
package timer

import "repro/internal/rng"

// TSC is a timestamp counter read through a noisy measurement process.
// It holds its noise generator inline, so a copy of a TSC measures on
// independently, drawing the same noise the original would.
type TSC struct {
	r rng.RNG
	// SigmaAbs is absolute jitter in cycles per measurement (interrupt
	// skew, rdtscp serialization variance).
	SigmaAbs float64
	// SigmaRel scales with the measured duration (frequency wander,
	// co-runner interference).
	SigmaRel float64
	// SpikeProb is the probability a measurement catches an OS
	// interrupt, adding SpikeCycles — the heavy tail real traces show.
	SpikeProb   float64
	SpikeCycles float64
}

// NewTSC builds a noisy timestamp counter driven by a copy of r.
func NewTSC(r *rng.RNG, sigmaAbs, sigmaRel float64) TSC {
	return TSC{r: *r, SigmaAbs: sigmaAbs, SigmaRel: sigmaRel, SpikeProb: 0.002, SpikeCycles: 900}
}

// Measure converts a true cycle duration into what rdtscp differencing
// would report.
func (t *TSC) Measure(trueCycles float64) float64 {
	m := trueCycles + t.r.NormScaled(0, t.SigmaAbs) + t.r.NormScaled(0, t.SigmaRel*trueCycles)
	if t.SpikeProb > 0 && t.r.Bool(t.SpikeProb) {
		m += t.SpikeCycles * (0.5 + t.r.Float64())
	}
	if m < 0 {
		m = 0
	}
	return m
}

// LowResSampler models a coarse timer restricted environment: it exposes
// time only at a fixed period (e.g. 10 Hz), so the attacker can compute
// rates (such as IPC) only over full periods.
type LowResSampler struct {
	PeriodCycles uint64
	last         uint64
}

// NewLowResSampler builds a sampler with the given period in cycles.
func NewLowResSampler(period uint64) *LowResSampler {
	return &LowResSampler{PeriodCycles: period}
}

// Tick reports whether a new sample boundary has been crossed at the
// given cycle, advancing the sampler when it has.
func (s *LowResSampler) Tick(cycle uint64) bool {
	if cycle-s.last >= s.PeriodCycles {
		s.last += s.PeriodCycles * ((cycle - s.last) / s.PeriodCycles)
		return true
	}
	return false
}
