package power

import (
	"math"
	"testing"
)

func params() Params {
	p := DefaultParams(2.7)
	p.RAPLIntervalCycles = 100
	p.RAPLQuantum = 10
	return p
}

func TestEnergyAccrual(t *testing.T) {
	m := NewMeter(params())
	m.AddCycleDelta(0, 4, 0, 0, 4)
	want := m.P.StaticWatts + 4*m.P.EnergyDSBUOp + 4*m.P.EnergyRetireUOp
	if got := m.TrueEnergy(); got != want {
		t.Errorf("energy = %v, want %v", got, want)
	}
}

func TestPathEnergyOrdering(t *testing.T) {
	// Figure 9: at equal delivery rates, LSD < DSB < MITE power.
	mk := func(lsd, dsb, mite uint64) float64 {
		m := NewMeter(params())
		for i := 0; i < 1000; i++ {
			m.AddCycleDelta(lsd, dsb, mite, 0, 4)
		}
		return AvgWatts(m.TrueEnergy(), m.Cycles())
	}
	lsd := mk(4, 0, 0)
	dsb := mk(0, 4, 0)
	mite := mk(0, 0, 4)
	if !(lsd < dsb && dsb < mite) {
		t.Errorf("power ordering violated: LSD=%.1f DSB=%.1f MITE=%.1f", lsd, dsb, mite)
	}
}

func TestRAPLUpdateInterval(t *testing.T) {
	m := NewMeter(params())
	for i := 0; i < 50; i++ {
		m.AddCycleDelta(0, 4, 0, 0, 4)
	}
	if got := m.RAPLRead(); got != 0 {
		t.Errorf("counter published before interval elapsed: %v", got)
	}
	for i := 0; i < 60; i++ {
		m.AddCycleDelta(0, 4, 0, 0, 4)
	}
	if got := m.RAPLRead(); got == 0 {
		t.Error("counter not published after interval")
	}
}

func TestRAPLQuantization(t *testing.T) {
	m := NewMeter(params())
	for i := 0; i < 200; i++ {
		m.AddCycleDelta(0, 4, 0, 0, 4)
	}
	v := m.RAPLRead()
	if q := m.P.RAPLQuantum; v != float64(uint64(v/q))*q {
		t.Errorf("RAPL value %v not quantized to %v", v, q)
	}
	if v > m.TrueEnergy() {
		t.Error("published counter exceeds true energy")
	}
}

func TestRAPLReadsCounted(t *testing.T) {
	m := NewMeter(params())
	m.RAPLRead()
	m.RAPLRead()
	if m.RAPLReads() != 2 {
		t.Errorf("reads = %d, want 2", m.RAPLReads())
	}
}

func TestAvgWattsZeroCycles(t *testing.T) {
	if AvgWatts(100, 0) != 0 {
		t.Error("zero cycles should yield zero watts")
	}
}

func TestStallEnergy(t *testing.T) {
	m := NewMeter(params())
	m.AddCycleDelta(0, 0, 0, 1, 0)
	want := m.P.StaticWatts + m.P.EnergyStallCycle
	if got := m.TrueEnergy(); got != want {
		t.Errorf("stall energy = %v, want %v", got, want)
	}
}

// TestAddCyclesMatchesPerCycle: k idle or stall cycles accrued in bulk
// leave the meter bit-identical to k AddCycleDelta calls with the same
// activity, across RAPL publications and from a publication phase left
// by busy cycles.
func TestAddCyclesMatchesPerCycle(t *testing.T) {
	p := params()
	p.StaticWatts = 45.3 // inexact in binary, so per-cycle rounding shows
	for _, stalls := range []uint64{0, 1} {
		for _, k := range []uint64{0, 1, 37, 99, 100, 101, 250, 1001} {
			stepped, bulk := NewMeter(p), NewMeter(p)
			for _, m := range []*Meter{stepped, bulk} {
				for range 33 {
					m.AddCycleDelta(1, 4, 3, 1, 4)
				}
			}
			for range k {
				stepped.AddCycleDelta(0, 0, 0, stalls, 0)
			}
			bulk.AddCycles(k, bulk.CycleEnergy(0, 0, 0, stalls, 0))
			if stepped.Cycles() != bulk.Cycles() || stepped.raplCycle != bulk.raplCycle ||
				math.Float64bits(stepped.TrueEnergy()) != math.Float64bits(bulk.TrueEnergy()) ||
				math.Float64bits(stepped.RAPLRead()) != math.Float64bits(bulk.RAPLRead()) {
				t.Errorf("stalls=%d k=%d: bulk meter %+v, per-cycle meter %+v", stalls, k, *bulk, *stepped)
			}
		}
	}
}
