package attack

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// The SGX channels are the plain non-MT and MT channels with the sender
// inside an enclave (Section VIII). The enclave boundary changes three
// things: every bit costs one enclave entry and one exit (EENTER/EEXIT
// microcode, TLB shootdowns — thousands of cycles each), code behind the
// boundary is measured more noisily from outside, and far more
// iterations are needed per bit (p = q = 1,000-5,000 for non-MT, q =
// 10,000 for MT, versus 10 outside SGX) — which is exactly why the
// paper's Table VI rates are roughly 1/25 to 1/30 of Table III's.
const (
	// SGXNonMTIters is the floor of p = q for the single-threaded SGX
	// channels.
	SGXNonMTIters = 1000
	// sgxMTEncodeIters is q for the MT SGX channels.
	sgxMTEncodeIters = 10000
	// sgxIterPad models per-iteration enclave execution overhead
	// (encrypted page cache accesses and MEE latency on code fetch).
	sgxIterPad = 75
)

func requireSGX(m cpu.Model) {
	if !m.SGX {
		panic(fmt.Sprintf("attack: %s has no SGX support (Table I)", m.Name))
	}
}

// SGXNonMT is a single-threaded SGX covert channel: the sender runs
// inside the enclave, the receiver triggers it and times the whole
// enclave call from outside — one entry and one exit per bit
// (Section VIII-2).
type SGXNonMT struct{ NonMT }

// NewSGXNonMT builds the SGX variant of a non-MT channel. The
// configuration is the plain channel's, with the iteration count raised
// to the SGX floor.
func NewSGXNonMT(cfg NonMTConfig) *SGXNonMT {
	requireSGX(cfg.Model)
	cfg.P = max(cfg.P, SGXNonMTIters)
	return &SGXNonMT{*NewNonMT(cfg)}
}

// Name implements channel.BitChannel.
func (a *SGXNonMT) Name() string { return "SGX Non-MT " + a.variant() }

// SendBit implements channel.BitChannel: enclave entry, p iterations of
// the init/encode/decode loop inside the enclave, enclave exit; the
// receiver measures the whole call with enclave-inflated noise.
func (a *SGXNonMT) SendBit(m byte) float64 {
	if a.rc.Err() != nil {
		return 0 // cancelled: the caller discards this bit
	}
	model := a.cfg.Model
	// Enclave entry.
	a.core.RunCycles(uint64(model.EnclaveTransitionCycles))
	meas := a.core.RunTimed(0, isa.NewFlatLoopStream(a.bit(m), a.cfg.P))
	// Per-iteration enclave overhead occupies real time.
	a.core.RunCycles(uint64(a.cfg.P * sgxIterPad))
	// Enclave exit.
	a.core.RunCycles(uint64(model.EnclaveTransitionCycles))
	// Per-iteration enclave overhead and the transition costs are part
	// of what the outside receiver times.
	meas += 2*model.EnclaveTransitionCycles + float64(a.cfg.P*sgxIterPad)
	// Enclave boundary noise.
	meas += a.core.R.NormScaled(0, model.TimerSigmaAbs*(model.EnclaveNoiseFactor-1))
	return meas
}

// SGXMT is the MT SGX channel: the enclave sender keeps its own
// hardware thread while the outside receiver times its own decode passes
// on the sibling thread (Section VIII-1).
type SGXMT struct{ MT }

// NewSGXMT builds the MT SGX variant of an MT configuration.
func NewSGXMT(cfg MTConfig) *SGXMT {
	requireSGX(cfg.Model)
	return &SGXMT{*newMT(cfg, true)}
}

// Name implements channel.BitChannel.
func (a *SGXMT) Name() string { return fmt.Sprintf("SGX MT %s", a.cfg.Kind) }

// SendBit implements channel.BitChannel.
func (a *SGXMT) SendBit(m byte) float64 {
	if a.rc.Err() != nil {
		return 0 // cancelled: the caller discards this bit
	}
	// One enclave entry per bit on the sender thread.
	a.core.RunCycles(uint64(a.cfg.Model.EnclaveTransitionCycles))
	if m == '1' {
		a.core.Enqueue(1, isa.NewFlatLoopStream(a.sender, sgxMTEncodeIters), nil)
	}
	// Receiver passes stay short (the plain MT length): the partition
	// signal concentrates in the passes right after the enclave starts
	// executing, and long passes would dilute it.
	pass := a.receive(10)
	a.core.RunCycles(uint64(a.cfg.Model.EnclaveTransitionCycles))
	// The receiver runs *outside* the enclave; only the plain SMT
	// desynchronization noise applies to its own measurements.
	return pass + a.core.R.NormScaled(0, a.noise())
}
