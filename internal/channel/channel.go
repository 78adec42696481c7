// Package channel provides the covert-channel protocol scaffolding every
// attack in the paper shares: the Init/Encode/Decode step structure
// (Section V), threshold calibration by sending an alternating pattern
// (Section VI-B), nearest-mean bit decoding, and transmission-rate /
// error-rate accounting using the Wagner-Fischer edit distance
// (Section VI).
package channel

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/runctx"
	"repro/internal/stats"
)

// BitChannel is one covert channel: it can transmit a single bit and
// report the simulated cycles the transmission consumed. Implementations
// live in the attack packages.
type BitChannel interface {
	// Name identifies the channel (e.g. "Non-MT Fast Eviction-Based").
	Name() string
	// SendBit runs one full Init/Encode/Decode round for bit m ('0' or
	// '1') and returns the receiver's measurement (cycles or energy).
	SendBit(m byte) float64
	// Cycles returns total simulated cycles consumed so far.
	Cycles() uint64
	// FreqGHz returns the platform clock for rate conversion.
	FreqGHz() float64
}

// Result summarizes one covert transmission, in the units of the paper's
// Tables II-VI.
type Result struct {
	Channel   string
	Model     string
	Sent      string
	Received  string
	Cycles    uint64
	Seconds   float64
	RateKbps  float64
	ErrorRate float64
}

// String renders the result like a table row.
func (r Result) String() string {
	return fmt.Sprintf("%-40s %-14s rate=%9.2f Kbps  err=%6.2f%%",
		r.Channel, r.Model, r.RateKbps, 100*r.ErrorRate)
}

// CtxAware is implemented by channels whose SendBit contains long inner
// loops of its own. TransmitCtx binds the run context before the first
// bit so such a channel can abort between its internal measurements as
// soon as the run is cancelled, instead of finishing the bit first.
// Binding must not perturb an uncancelled transmission: implementations
// may only consult the context's cancellation state, never its
// progress sink or RNG-affecting machinery.
type CtxAware interface {
	BindCtx(runctx.Ctx)
}

// Transmit calibrates ch on a short alternating preamble, transmits
// message, and returns the measured rates. The calibration samples are
// not charged to the transmission time (the paper reports steady-state
// channel rates, with thresholds established beforehand).
func Transmit(ch BitChannel, modelName, message string, calibBits int) Result {
	res, _ := TransmitCtx(runctx.Background(), ch, modelName, message, calibBits)
	return res
}

// TransmitCtx is Transmit with cooperative cancellation, progress, and
// tracing: it runs the calibration preamble, then transmits message
// through TransmitCalibrated on the calibrated channel. It checkpoints
// once per calibration and message bit, returning the context's error
// (and a zero Result) if the run is cancelled mid-transmission. When rc
// carries a trace, the preamble and the transmission record as spans —
// at stage granularity, not per bit, so tracing costs nothing inside the
// loops. An uncancelled TransmitCtx is byte-identical to Transmit —
// neither checkpoints nor spans touch the channel or its RNG.
func TransmitCtx(rc runctx.Ctx, ch BitChannel, modelName, message string, calibBits int) (Result, error) {
	th, err := calibrateCtx(rc, ch, modelName, calibBits)
	if err != nil {
		return Result{}, err
	}
	return TransmitCalibrated(rc, ch, modelName, message, th)
}

// calibrateCtx binds rc to ch and sends an alternating 0/1 preamble of
// calibBits bits (at least 2) through it under a "channel.calibrate"
// span, with one checkpoint per bit, and returns the decision threshold
// (Section VI-B).
func calibrateCtx(rc runctx.Ctx, ch BitChannel, modelName string, calibBits int) (stats.Threshold, error) {
	if ca, ok := ch.(CtxAware); ok {
		ca.BindCtx(rc)
	}
	bits := max(calibBits, 2)
	stage := ch.Name() + " @ " + modelName
	rc, span := rc.StartSpan("channel.calibrate", obs.Int("calib_bits", bits))
	defer span.End()
	zeros := make([]float64, 0, (bits+1)/2)
	ones := make([]float64, 0, bits/2)
	for i := 0; i < bits; i++ {
		if err := rc.Step(stage, i, bits); err != nil {
			return stats.Threshold{}, err
		}
		if i%2 == 0 {
			zeros = append(zeros, ch.SendBit('0'))
		} else {
			ones = append(ones, ch.SendBit('1'))
		}
	}
	return stats.Calibrate(zeros, ones), nil
}

// Message patterns of Table II.

// AllZeros returns an n-bit all-0s message.
func AllZeros(n int) string { return strings.Repeat("0", n) }

// AllOnes returns an n-bit all-1s message.
func AllOnes(n int) string { return strings.Repeat("1", n) }

// Alternating returns an n-bit 0101... message, the pattern used for
// threshold calibration and most table rows.
func Alternating(n int) string {
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteByte('0' + byte(i%2))
	}
	return b.String()
}

// Random returns an n-bit pseudo-random message drawn from r.
func Random(n int, r *rng.RNG) string {
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		if r.Bool(0.5) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
