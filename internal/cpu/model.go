// Package cpu assembles the substrates into a simulated processor core:
// two SMT hardware threads sharing a frontend, execution engine, L1
// caches, and a power meter, with the CPU model catalog of the paper's
// Table I and a deterministic cycle loop that the attack layer drives.
package cpu

import (
	"repro/internal/backend"
	"repro/internal/frontend"
	"repro/internal/power"
)

// Model describes one of the evaluated processors (Table I) plus the
// calibration constants the reproduction uses to match that machine's
// measured channel characteristics.
type Model struct {
	Name      string
	Microarch string
	Cores     int
	Threads   int
	FreqGHz   float64
	OS        string

	// LSDEnabled reflects the machine's current microcode: Table I marks
	// the LSD disabled on the E-2174G and E-2286G; Section X's patch2
	// disables it on the Gold 6226 too.
	LSDEnabled bool
	LSDEntries int
	SGX        bool
	// HyperThreading is false on the Azure E-2288G, which rules the MT
	// attacks out on that machine (Table III).
	HyperThreading bool

	FE frontend.Params
	BE backend.Params
	PW power.Params

	// Measurement-noise calibration (drives the channel error rates).
	TimerSigmaAbs float64 // absolute rdtscp jitter, cycles
	TimerSigmaRel float64 // duration-proportional jitter
	// MITEJitterSqrtUOp adds timing noise scaling with the square root
	// of the micro-ops that went through legacy decode during a measured
	// step (independent per-micro-op perturbations add in quadrature):
	// MITE's fetch/decode overlap is data-dependent on real parts, so
	// MITE-heavy attack steps (the eviction channels) measure noisier
	// than DSB/LSD-resident ones (the misalignment channels) — Table
	// III's error-rate pattern.
	MITEJitterSqrtUOp float64
	// PowerNoiseWatts is the RAPL measurement noise floor (co-tenant
	// activity, voltage regulator wander) applied per power-channel
	// reading.
	PowerNoiseWatts float64
	// MTNoisePerPass is the cross-thread desynchronization noise added
	// to each MT receiver pass measurement: sender and receiver slots
	// drift against each other on real SMT cores, which is why the MT
	// channels are noisier than the non-MT ones (Section VI-E).
	MTNoisePerPass float64

	// ProtocolOverheadCycles is the fixed per-measurement overhead
	// (timer serialization, loop setup); it is the per-model constant
	// that spreads the Table III transmission rates beyond what clock
	// frequency alone explains.
	ProtocolOverheadCycles float64
	// StepOverheadCycles is the additional handshake cost a protocol
	// step pays when it actually executes sender code; the fast (do
	// nothing on 0) variants skip it on zero bits, which is their rate
	// advantage over the stealthy variants (Table III).
	StepOverheadCycles float64
	// MTStepCycles is the per-encode-step slot length of the MT
	// channels' synchronization protocol; a bit occupies q such slots.
	MTStepCycles float64

	// PartitionHysteresis is how long (cycles) after a sibling thread
	// goes quiet the DSB stays partitioned.
	PartitionHysteresis uint64
	// StaticDSBPartition pins the DSB in its partitioned configuration
	// from reset, removing the dynamic partition/revert transitions the
	// MT eviction channel's signal rides on. It is the frontend-path
	// partitioning defense of Section XII, not a Table I machine
	// configuration; the registered "partition" defense sets it.
	StaticDSBPartition bool

	// EnclaveTransitionCycles is the cost of one SGX enclave entry or
	// exit (Section VIII).
	EnclaveTransitionCycles float64
	// EnclaveNoiseFactor scales measurement noise for code running
	// behind an enclave boundary.
	EnclaveNoiseFactor float64
}

// WithLSD returns a copy of the model with the LSD force-enabled or
// disabled, the microcode-patch knob of Section X.
func (m Model) WithLSD(enabled bool) Model {
	m.LSDEnabled = enabled
	return m
}

// Gold6226 is the Intel Xeon Gold 6226 (Cascade Lake) test machine: the
// paper's primary platform for the frontend analysis, power channels,
// Spectre variant, and microcode fingerprinting.
func Gold6226() Model {
	return Model{
		Name:                    "Gold 6226",
		Microarch:               "Cascade Lake",
		Cores:                   12,
		Threads:                 24,
		FreqGHz:                 2.7,
		OS:                      "Ubuntu 18.04",
		LSDEnabled:              true,
		LSDEntries:              64,
		SGX:                     false,
		HyperThreading:          true,
		FE:                      frontend.DefaultParams(),
		BE:                      backend.DefaultParams(),
		PW:                      power.DefaultParams(2.7),
		TimerSigmaAbs:           16,
		TimerSigmaRel:           0.002,
		MITEJitterSqrtUOp:       2.9,
		PowerNoiseWatts:         1.3,
		MTNoisePerPass:          2.4,
		ProtocolOverheadCycles:  4045,
		StepOverheadCycles:      2090,
		MTStepCycles:            215,
		PartitionHysteresis:     400,
		EnclaveTransitionCycles: 9000,
		EnclaveNoiseFactor:      2.0,
	}
}

// XeonE2174G is the Intel Xeon E-2174G (Coffee Lake, LSD disabled by
// microcode, SGX capable).
func XeonE2174G() Model {
	m := Gold6226()
	m.Name = "Xeon E-2174G"
	m.Microarch = "Coffee Lake"
	m.Cores, m.Threads = 4, 8
	m.FreqGHz = 3.8
	m.LSDEnabled = false
	m.LSDEntries = 0
	m.SGX = true
	m.PW = power.DefaultParams(3.8)
	m.TimerSigmaAbs = 10
	m.TimerSigmaRel = 0.0015
	m.MITEJitterSqrtUOp = 2.1
	m.PowerNoiseWatts = 0.9
	m.MTNoisePerPass = 1.6
	m.ProtocolOverheadCycles = 3065
	m.StepOverheadCycles = 1150
	m.MTStepCycles = 311
	m.EnclaveTransitionCycles = 7800
	return m
}

// XeonE2286G is the Intel Xeon E-2286G (Coffee Lake, LSD disabled by
// microcode, SGX capable).
func XeonE2286G() Model {
	m := XeonE2174G()
	m.Name = "Xeon E-2286G"
	m.Cores, m.Threads = 6, 12
	m.FreqGHz = 4.0
	m.PW = power.DefaultParams(4.0)
	m.TimerSigmaAbs = 9
	m.TimerSigmaRel = 0.0015
	m.MITEJitterSqrtUOp = 2.1
	m.PowerNoiseWatts = 0.9
	m.MTNoisePerPass = 1.7
	m.ProtocolOverheadCycles = 3000
	m.StepOverheadCycles = 130
	m.MTStepCycles = 229
	m.EnclaveTransitionCycles = 7400
	return m
}

// XeonE2288G is the Microsoft-Azure Intel Xeon E-2288G: hyper-threading
// disabled (Table I footnote a), LSD present, SGX capable.
func XeonE2288G() Model {
	m := XeonE2174G()
	m.Name = "Xeon E-2288G"
	m.Cores, m.Threads = 8, 8
	m.FreqGHz = 3.7
	m.LSDEnabled = true
	m.LSDEntries = 64
	m.HyperThreading = false
	m.PW = power.DefaultParams(3.7)
	m.TimerSigmaAbs = 6
	m.TimerSigmaRel = 0.001
	m.MITEJitterSqrtUOp = 1.2
	m.PowerNoiseWatts = 0.7
	m.MTNoisePerPass = 1.0
	m.ProtocolOverheadCycles = 2310
	m.StepOverheadCycles = 170
	m.MTStepCycles = 160
	m.EnclaveTransitionCycles = 7000
	return m
}

// Models returns the full Table I catalog in the paper's column order.
func Models() []Model {
	return []Model{Gold6226(), XeonE2174G(), XeonE2286G(), XeonE2288G()}
}

// ModelByName finds a catalog model by (case-sensitive) name.
func ModelByName(name string) (Model, bool) {
	for _, m := range Models() {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}
