package attack

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/cpu"
	"repro/internal/rng"
)

// TestCalibrationReport prints the full channel matrix when run with -v;
// it is the tuning surface for matching Table III. It always checks the
// coarse shape assertions.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report skipped in -short")
	}
	msg := channel.Alternating(200)
	for _, m := range cpu.Models() {
		for _, kind := range []Kind{Eviction, Misalignment} {
			for _, stealthy := range []bool{true, false} {
				ch := NewNonMT(DefaultNonMT(m, kind, stealthy))
				res := channel.Transmit(ch, m.Name, msg, 40)
				t.Logf("%s", res)
			}
			if m.HyperThreading {
				ch := NewMT(DefaultMT(m, kind))
				res := channel.Transmit(ch, m.Name, msg, 40)
				t.Logf("%s  (q=%d)", res, ch.Q())
			}
		}
	}
	for _, m := range []cpu.Model{cpu.Gold6226(), cpu.XeonE2288G()} {
		ch := NewSlowSwitch(DefaultSlowSwitch(m))
		res := channel.Transmit(ch, m.Name, msg, 40)
		t.Logf("%s", res)
	}
}

// testBits trims message lengths under -short; the decode assertions
// hold at both scales.
func testBits(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

func TestNonMTFastChannelsDecode(t *testing.T) {
	// Fast variants must achieve near-zero error on every machine.
	bits := testBits(100, 50)
	maxErr := 0.12
	if testing.Short() {
		maxErr = 0.18 // fewer bits quantize the error rate more coarsely
	}
	for _, m := range cpu.Models() {
		for _, kind := range []Kind{Eviction, Misalignment} {
			ch := NewNonMT(DefaultNonMT(m, kind, false))
			res := channel.Transmit(ch, m.Name, channel.Alternating(bits), 30)
			if res.ErrorRate > maxErr {
				t.Errorf("%s on %s: error %.1f%% too high", ch.Name(), m.Name, 100*res.ErrorRate)
			}
			if res.RateKbps < 50 {
				t.Errorf("%s on %s: rate %.1f Kbps too low", ch.Name(), m.Name, res.RateKbps)
			}
		}
	}
}

func TestNonMTFasterThanMT(t *testing.T) {
	// Table III: non-MT channels beat MT channels on rate.
	m := cpu.XeonE2174G()
	bits := testBits(100, 50)
	non := channel.Transmit(NewNonMT(DefaultNonMT(m, Eviction, false)), m.Name, channel.Alternating(bits), 30)
	mt := channel.Transmit(NewMT(DefaultMT(m, Eviction)), m.Name, channel.Alternating(bits), 30)
	if non.RateKbps <= mt.RateKbps {
		t.Errorf("non-MT (%.0f Kbps) should beat MT (%.0f Kbps)", non.RateKbps, mt.RateKbps)
	}
}

func TestMTChannelsDecode(t *testing.T) {
	for _, m := range []cpu.Model{cpu.Gold6226(), cpu.XeonE2174G()} {
		for _, kind := range []Kind{Eviction, Misalignment} {
			ch := NewMT(DefaultMT(m, kind))
			res := channel.Transmit(ch, m.Name, channel.Alternating(testBits(60, 36)), 30)
			if res.ErrorRate > 0.30 {
				t.Errorf("MT %v on %s: error %.1f%% too high", kind, m.Name, 100*res.ErrorRate)
			}
		}
	}
}

func TestSlowSwitchDecodes(t *testing.T) {
	ch := NewSlowSwitch(DefaultSlowSwitch(cpu.XeonE2288G()))
	res := channel.Transmit(ch, "E-2288G", channel.Alternating(testBits(100, 50)), 30)
	if res.ErrorRate > 0.10 {
		t.Errorf("slow-switch error %.1f%% too high", 100*res.ErrorRate)
	}
}

func TestPowerChannelDecodes(t *testing.T) {
	if testing.Short() {
		t.Skip("power channel is slow")
	}
	cfg := DefaultPower(cpu.Gold6226(), Eviction)
	cfg.Iters = 4000 // scaled down for unit testing; benches use more
	ch := NewPower(cfg)
	res := channel.Transmit(ch, "Gold 6226", channel.Alternating(16), 8)
	if res.ErrorRate > 0.45 {
		t.Errorf("power channel error %.1f%%: no signal at all", 100*res.ErrorRate)
	}
	if res.RateKbps > 50 {
		t.Errorf("power channel rate %.1f Kbps is implausibly high (RAPL-limited)", res.RateKbps)
	}
}

func TestMTPanicsWithoutHT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MT attack on HT-disabled model must panic")
		}
	}()
	NewMT(DefaultMT(cpu.XeonE2288G(), Eviction))
}

// TestMTMeasurementsDefault requires an MT and an SGX MT channel built
// with no measurement count to transmit exactly what one built with the
// default ten passes does.
func TestMTMeasurementsDefault(t *testing.T) {
	m := cpu.XeonE2174G()
	for _, build := range []func(MTConfig) channel.BitChannel{
		func(cfg MTConfig) channel.BitChannel { return NewMT(cfg) },
		func(cfg MTConfig) channel.BitChannel { return NewSGXMT(cfg) },
	} {
		cfg := DefaultMT(m, Eviction)
		cfg.Measurements = 10
		want := channel.Transmit(build(cfg), m.Name, channel.Alternating(12), 8)
		cfg.Measurements = 0
		if got := channel.Transmit(build(cfg), m.Name, channel.Alternating(12), 8); got != want {
			t.Errorf("Measurements 0 sent %+v; 10 sent %+v", got, want)
		}
	}
}

func TestMessagePatternHelpers(t *testing.T) {
	if channel.AllZeros(4) != "0000" || channel.AllOnes(3) != "111" {
		t.Error("constant messages wrong")
	}
	if channel.Alternating(5) != "01010" {
		t.Error("alternating message wrong")
	}
	r := channel.Random(64, rng.New(1))
	if len(r) != 64 {
		t.Error("random message length wrong")
	}
}
