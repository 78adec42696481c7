// Package power models package energy consumption and Intel's Running
// Average Power Limit (RAPL) interface, the measurement channel of the
// paper's power attacks (Section VII).
//
// The meter accrues energy per simulated cycle from the frontend path
// each micro-op took: the LSD exists to save power, the DSB is cheaper
// than full decode, and MITE decode is the expensive path — the ordering
// shown in Figure 9. RAPL exposes that energy as a counter that is
// quantized and only updated at a fixed interval (~20 kHz per the paper,
// citing PLATYPUS), which is what caps the power channel's bandwidth at
// ~0.6 Kbps in Table V.
package power

// Params calibrates the energy model. Energy is accounted in watt-cycles
// (average watts times cycles), so dividing by elapsed cycles yields
// watts directly, independent of clock frequency.
type Params struct {
	// StaticWatts is the package idle floor.
	StaticWatts float64
	// Per-micro-op delivery energy by path (watt-cycles per micro-op).
	EnergyLSDUOp  float64
	EnergyDSBUOp  float64
	EnergyMITEUOp float64
	// EnergyRetireUOp is backend energy per retired micro-op.
	EnergyRetireUOp float64
	// EnergyStallCycle is burned per frontend stall cycle (pipeline kept
	// warm while not delivering).
	EnergyStallCycle float64

	// RAPLIntervalCycles is how many cycles pass between RAPL counter
	// updates (~50 us at the paper's 20 kHz refresh).
	RAPLIntervalCycles uint64
	// RAPLQuantum is the energy LSB of the counter, in watt-cycles.
	RAPLQuantum float64
}

// DefaultParams returns the calibration used by the CPU model catalog;
// the per-path ratios reproduce Figure 9's LSD < DSB < MITE+DSB ordering.
func DefaultParams(freqGHz float64) Params {
	return Params{
		StaticWatts:        45.0,
		EnergyLSDUOp:       1.0,
		EnergyDSBUOp:       2.4,
		EnergyMITEUOp:      10.5,
		EnergyRetireUOp:    0.9,
		EnergyStallCycle:   1.5,
		RAPLIntervalCycles: uint64(freqGHz * 1e9 / 20000), // 20 kHz refresh
		RAPLQuantum:        150,
	}
}

// Meter accumulates energy and serves RAPL reads.
type Meter struct {
	P Params

	energy    float64 // true accumulated energy, watt-cycles
	cycles    uint64
	raplValue float64 // last published (quantized) counter value
	raplCycle uint64  // cycle of last publication
	raplReads uint64
}

// NewMeter builds a meter.
func NewMeter(p Params) *Meter { return &Meter{P: p} }

// AddCycleDelta accrues one cycle of energy given that cycle's frontend
// activity, micro-ops delivered by each path and stall cycles, and the
// number of micro-ops retired.
func (m *Meter) AddCycleDelta(uopsLSD, uopsDSB, uopsMITE, stallCycles uint64, retired int) {
	m.addCycle(m.CycleEnergy(uopsLSD, uopsDSB, uopsMITE, stallCycles, retired))
}

// CycleEnergy returns the energy AddCycleDelta accrues for one cycle of
// the given activity.
func (m *Meter) CycleEnergy(uopsLSD, uopsDSB, uopsMITE, stallCycles uint64, retired int) float64 {
	e := m.P.StaticWatts
	e += float64(uopsLSD) * m.P.EnergyLSDUOp
	e += float64(uopsDSB) * m.P.EnergyDSBUOp
	e += float64(uopsMITE) * m.P.EnergyMITEUOp
	e += float64(retired) * m.P.EnergyRetireUOp
	e += float64(stallCycles) * m.P.EnergyStallCycle
	return e
}

// addCycle accrues one cycle costing e and publishes RAPL when due.
func (m *Meter) addCycle(e float64) {
	m.cycles++
	m.energy += e
	if m.cycles-m.raplCycle >= m.P.RAPLIntervalCycles {
		m.publish()
	}
}

// AddCycles accrues k cycles of one activity whose CycleEnergy is e,
// exactly as k calls of AddCycleDelta with that activity would: e is
// added once per cycle in order (one k*e add can round differently), and
// RAPL publishes on the same cycles.
func (m *Meter) AddCycles(k uint64, e float64) {
	for k > 0 {
		n := min(m.untilPublish(), k)
		sum := m.energy
		for range n {
			sum += e
		}
		m.energy = sum
		m.cycles += n
		k -= n
		if m.cycles-m.raplCycle >= m.P.RAPLIntervalCycles {
			m.publish()
		}
	}
}

// Replay accrues k repetitions of the recorded cycles whose CycleEnergy
// values es holds, exactly as calling AddCycleDelta for each of them in
// order, k times over, would: the energy is added one cycle at a time
// and RAPL publishes on the same cycles.
func (m *Meter) Replay(es []float64, k uint64) {
	for range k {
		for rest := es; len(rest) > 0; {
			n := min(m.untilPublish(), uint64(len(rest)))
			e := m.energy
			for _, x := range rest[:n] {
				e += x
			}
			m.energy = e
			m.cycles += n
			rest = rest[n:]
			if m.cycles-m.raplCycle >= m.P.RAPLIntervalCycles {
				m.publish()
			}
		}
	}
}

// untilPublish returns how many cycles to accrue up to and including
// the next RAPL publication.
func (m *Meter) untilPublish() uint64 {
	if since := m.cycles - m.raplCycle; since < m.P.RAPLIntervalCycles {
		return m.P.RAPLIntervalCycles - since
	}
	return 1
}

func (m *Meter) publish() {
	q := m.P.RAPLQuantum
	m.raplValue = float64(uint64(m.energy/q)) * q
	m.raplCycle = m.cycles
}

// Cycles returns the number of accounted cycles.
func (m *Meter) Cycles() uint64 { return m.cycles }

// TrueEnergy returns the exact accumulated energy in watt-cycles. Only
// the simulator itself can see this; attackers read RAPL.
func (m *Meter) TrueEnergy() float64 { return m.energy }

// RAPLRead returns the energy counter as software sees it: quantized and
// stale up to one update interval — the realistic measurement surface of
// the power channel.
func (m *Meter) RAPLRead() float64 {
	m.raplReads++
	return m.raplValue
}

// RAPLReads returns how many times the counter was read.
func (m *Meter) RAPLReads() uint64 { return m.raplReads }

// AvgWatts converts an energy delta over a cycle span into average watts.
func AvgWatts(energyDelta float64, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return energyDelta / float64(cycles)
}
