package attack

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/cpu"
)

func TestRequireSGX(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gold 6226 has no SGX; construction must panic")
		}
	}()
	NewSGXNonMT(DefaultNonMT(cpu.Gold6226(), Eviction, false))
}

func TestNonMTSGXDecodes(t *testing.T) {
	for _, kind := range []Kind{Eviction, Misalignment} {
		ch := NewSGXNonMT(DefaultNonMT(cpu.XeonE2174G(), kind, false))
		res := channel.Transmit(ch, "E-2174G", channel.Alternating(24), 10)
		if res.ErrorRate > 0.15 {
			t.Errorf("%s error %.1f%% too high", ch.Name(), 100*res.ErrorRate)
		}
	}
}

func TestSGXSlowerThanPlain(t *testing.T) {
	// Table VI: SGX rates are roughly 1/25-1/30 of the plain non-MT rates.
	m := cpu.XeonE2174G()
	plain := channel.Transmit(NewNonMT(DefaultNonMT(m, Eviction, false)),
		m.Name, channel.Alternating(40), 16)
	sgx := channel.Transmit(NewSGXNonMT(DefaultNonMT(m, Eviction, false)),
		m.Name, channel.Alternating(24), 10)
	ratio := plain.RateKbps / sgx.RateKbps
	if ratio < 8 || ratio > 80 {
		t.Errorf("plain/SGX rate ratio = %.1f (plain %.0f, sgx %.0f), want ~25-30x",
			ratio, plain.RateKbps, sgx.RateKbps)
	}
}

func TestMTSGXDecodes(t *testing.T) {
	if testing.Short() {
		t.Skip("MT SGX channel is slow")
	}
	ch := NewSGXMT(DefaultMT(cpu.XeonE2174G(), Eviction))
	res := channel.Transmit(ch, "E-2174G", channel.Alternating(16), 8)
	if res.ErrorRate > 0.30 {
		t.Errorf("MT SGX error %.1f%% too high", 100*res.ErrorRate)
	}
	if res.RateKbps > 60 {
		t.Errorf("MT SGX rate %.1f Kbps implausibly high (paper: 6-15 Kbps)", res.RateKbps)
	}
}

func TestSGXIterationFloor(t *testing.T) {
	cfg := DefaultNonMT(cpu.XeonE2286G(), Eviction, false)
	cfg.P = 10 // plain default must be raised to the SGX setting
	ch := NewSGXNonMT(cfg)
	if ch.cfg.P < SGXNonMTIters {
		t.Errorf("P = %d, want >= %d", ch.cfg.P, SGXNonMTIters)
	}
}
