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

// sameMeter reports whether two meters agree field by field, floats in
// bits.
func sameMeter(a, b *Meter) bool {
	return a.P == b.P && a.cycles == b.cycles && a.raplCycle == b.raplCycle && a.raplReads == b.raplReads &&
		math.Float64bits(a.energy) == math.Float64bits(b.energy) &&
		math.Float64bits(a.raplValue) == math.Float64bits(b.raplValue)
}

// TestReplayMatchesPerCycle: a period replayed in bulk (by Replay, or
// by AddCycles for a one-cycle period) leaves the meter, field by field
// and in float bits, as stepping its cycles one by one does: for RAPL
// intervals of 0, 1 and longer, with the span's last publication at
// every offset of it (its first and last cycle included) or with none,
// and from energies in many binades, one a few units below a power of
// two.
func TestReplayMatchesPerCycle(t *testing.T) {
	starts := []float64{0, 1234.5, math.Ldexp(1, 20) - 5*math.Ldexp(1, 19-52), 3.7e9}
	for _, es := range [][]float64{
		{47.4, 45.3, 91.8, 46.5, 58.2, 45.9, 101.1}, // inexact, as CycleEnergy's
		{46.8},
	} {
		run := func(iv, phase, k uint64, start float64) (offset uint64) {
			p := params()
			p.RAPLIntervalCycles = iv
			stepped, bulk := NewMeter(p), NewMeter(p)
			for _, m := range []*Meter{stepped, bulk} {
				m.cycles, m.raplCycle, m.energy, m.raplValue = 1000+phase, 1000, start, 10
			}
			for range k {
				for _, e := range es {
					stepped.addCycle(e)
				}
			}
			if len(es) == 1 {
				bulk.AddCycles(k, es[0])
			} else {
				bulk.Replay(es, k)
			}
			if !sameMeter(stepped, bulk) {
				t.Fatalf("period %v, interval %d, phase %d, %d passes from %v: bulk meter %+v, stepped meter %+v",
					es, iv, phase, k, start, *bulk, *stepped)
			}
			if stepped.raplCycle > 1000 {
				return stepped.raplCycle - 1000 - phase
			}
			return 0
		}
		const n = 84
		seen := map[uint64]bool{}
		for _, iv := range []uint64{0, 1, 2, 5, 7, 13, n - 1, n, n + 1, 10 * n} {
			for phase := range max(iv, 1) {
				for _, start := range starts {
					seen[run(iv, phase, n/uint64(len(es)), start)] = true
				}
			}
		}
		for off := range uint64(n + 1) {
			if !seen[off] {
				t.Errorf("period %v: no case's last publication fell at offset %d of the span (0: none)", es, off)
			}
		}
		for _, iv := range []uint64{0, 1, 1000, 20999, 21000, 21001, 135000} {
			for _, phase := range []uint64{0, 1, 500, 999} {
				for _, start := range starts {
					run(iv, min(phase, max(iv, 1)-1), 21000/uint64(len(es)), start)
				}
			}
		}
	}
}

// BenchmarkMeterReplay prices the steady-loop skip's energy replay: a
// 256-cycle period of a power channel's energies, replayed 8192 times
// across RAPL publications.
func BenchmarkMeterReplay(b *testing.B) {
	p := DefaultParams(2.7)
	m := Meter{P: p}
	es := make([]float64, 256)
	for i := range es {
		es[i] = m.CycleEnergy(uint64(i%3), uint64(4*(i%2)), uint64(i%5/4*4), uint64(i%7/6), 4-i%2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		m = Meter{P: p}
		m.Replay(es, 8192)
	}
	b.ReportMetric(float64(m.Cycles()), "sim-cycles/op")
}

// BenchmarkMeterAddCycles prices the stall skip's energy: 100,000 stall
// cycles added in one call.
func BenchmarkMeterAddCycles(b *testing.B) {
	p := DefaultParams(2.7)
	m := Meter{P: p}
	e := m.CycleEnergy(0, 0, 0, 1, 0)
	b.ReportAllocs()
	for range b.N {
		m = Meter{P: p}
		m.AddCycles(100_000, e)
	}
	b.ReportMetric(float64(m.Cycles()), "sim-cycles/op")
}
