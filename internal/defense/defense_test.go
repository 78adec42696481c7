// The defense tests live in an external package so they can transmit
// through spec.ChannelSpec: spec imports defense, so an internal test
// would be an import cycle.
package defense_test

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/channel"
	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/spec"
	"repro/internal/spectre"
)

// apply returns m under the registered defense's transform.
func apply(t *testing.T, name string, m cpu.Model) cpu.Model {
	t.Helper()
	d, ok := defense.Lookup(name)
	if !ok {
		t.Fatalf("defense %q is not registered", name)
	}
	return d.Apply(m)
}

// residual transmits an alternating message through the spec and
// returns the error rate; ~0.5 means the channel is dead. The
// 30-bit calibration preamble is the one the ablations have always
// used.
func residual(t *testing.T, cs spec.ChannelSpec, bits int) float64 {
	t.Helper()
	cs.CalibBits, cs.Seed = 30, 1
	res, err := cs.Transmit(channel.Alternating(bits))
	if err != nil {
		t.Fatal(err)
	}
	return res.ErrorRate
}

func TestDisableSMTKillsMTAttacks(t *testing.T) {
	m := apply(t, defense.DefenseNoSMT, cpu.Gold6226())
	if err := (spec.ChannelSpec{Threading: spec.ThreadingMT, Defense: defense.DefenseNoSMT}).Validate(); err == nil {
		t.Error("an MT spec under nosmt validated")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MT attack construction must fail without SMT")
		}
	}()
	attack.NewMT(attack.DefaultMT(m, attack.Eviction))
}

func TestEqualizedPathsKillNonMTChannel(t *testing.T) {
	// The stealthy eviction channel's bits execute the same instruction
	// count and differ only in which frontend path serves them. (The
	// "fast" variants leak through execution length and survive any
	// path-timing defense, which is the paper's point that code must also
	// be written constant-work; see Section XII.)
	cs := spec.ChannelSpec{Model: "Xeon E-2288G", Stealthy: true} // cleanest machine: strongest channel
	baseErr := residual(t, cs, 100)
	cs.Defense = defense.DefenseEqualizePaths
	defErr := residual(t, cs, 100)
	t.Logf("stealthy eviction error: baseline %.2f, equalized paths %.2f", baseErr, defErr)
	if baseErr > 0.1 {
		t.Fatalf("baseline channel broken (%.2f)", baseErr)
	}
	if defErr < 0.25 {
		t.Errorf("equalized paths left error at %.2f; channel should approach coin-flip", defErr)
	}
}

func TestEqualizedPathsCostPerformance(t *testing.T) {
	// Section XII: removing the timing signatures "would reduce the
	// performance ... benefits". The defended frontend must be slower on
	// DSB/LSD-friendly code.
	m := cpu.Gold6226()
	cost := defense.PerformanceCost(m, apply(t, defense.DefenseEqualizePaths, m), 1)
	t.Logf("equalized-path slowdown on mix-chain loop: %.2fx", cost)
	if cost < 1.05 {
		t.Errorf("defense cost %.2fx: equalizing paths should not be free", cost)
	}
}

func TestDisableRAPLKillsPowerChannel(t *testing.T) {
	// Reduced iterations keep the ablation fast.
	defErr := residual(t, spec.ChannelSpec{Sink: spec.SinkPower, P: 4000, Defense: defense.DefenseNoRAPL}, 16)
	t.Logf("power channel error with RAPL disabled: %.2f", defErr)
	if defErr < 0.3 {
		t.Errorf("power channel still decodes (%.2f) without RAPL updates", defErr)
	}
}

func TestBufferedDSBKillsSpectreFrontend(t *testing.T) {
	// Baseline accuracy is high; with buffered speculative fills the
	// frontend channel collapses to guessing (1/32 per chunk).
	base := spectre.NewLab(spectre.DefaultConfig(spectre.Frontend)).Leak([]byte{3, 17, 29, 8})
	if base.Accuracy < 0.75 {
		t.Fatalf("baseline Spectre accuracy %.2f too low to ablate", base.Accuracy)
	}
	acc := defense.SpectreBufferedDSB(1)
	t.Logf("Spectre frontend accuracy: baseline %.2f, buffered-DSB %.2f", base.Accuracy, acc)
	if acc > 0.3 {
		t.Errorf("buffered-DSB defense left accuracy at %.2f", acc)
	}
}

func TestDefendedModelsStillRun(t *testing.T) {
	// Defenses must not break functional execution.
	m := cpu.Gold6226()
	for _, name := range []string{defense.DefenseNoSMT, defense.DefenseEqualizePaths, defense.DefenseNoRAPL} {
		if cost := defense.PerformanceCost(m, apply(t, name, m), 2); cost <= 0 {
			t.Errorf("%s: defended model did not execute", name)
		}
	}
}
