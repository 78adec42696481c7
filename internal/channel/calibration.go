// Calibration memoization: the per-transmission calibration preamble is
// the most expensive shared prefix in a sweep — every spec runs it before
// its first message bit, and specs sharing a full measurement identity
// run the *same* preamble. This file lets callers run it once, snapshot
// the calibrated channel's entire simulator state, and replay transmits
// from the snapshot byte-for-byte.
package channel

import (
	"strings"

	"repro/internal/obs"
	"repro/internal/runctx"
	"repro/internal/stats"
)

// Cloneable is a BitChannel whose full simulator state can be deep-
// copied. Transmitting on the clone produces exactly the measurement
// sequence the original would have produced from the snapshot point —
// the property the calibration cache's byte-identity rests on. All six
// channel types in internal/attack implement it.
type Cloneable interface {
	BitChannel
	// CloneChannel returns an independent deep copy of the channel. The
	// copy shares no mutable state with the original; any bound run
	// context is dropped.
	CloneChannel() BitChannel
}

// Calibration is a memoized calibration preamble: the decision threshold
// it produced plus a snapshot of the channel's post-preamble simulator
// state. One Calibration can back any number of transmissions, each on
// its own clone of the snapshot.
type Calibration struct {
	Threshold stats.Threshold
	modelName string
	proto     Cloneable
}

// NewCalibrationCtx runs the calibration preamble on a freshly built
// channel and snapshots the result. The channel must not have
// transmitted yet; after the call it is owned by the Calibration and
// must not be used by the caller.
func NewCalibrationCtx(rc runctx.Ctx, ch Cloneable, modelName string, calibBits int) (*Calibration, error) {
	th, err := calibrateCtx(rc, ch, modelName, calibBits)
	if err != nil {
		return nil, err
	}
	proto, ok := ch.CloneChannel().(Cloneable)
	if !ok {
		panic("channel: CloneChannel returned a non-Cloneable channel")
	}
	return &Calibration{Threshold: th, modelName: modelName, proto: proto}, nil
}

// TransmitCtx transmits message through a fresh clone of the calibrated
// snapshot. The result is byte-identical to an unmemoized TransmitCtx of
// the same message on a fresh channel with the same calibration width.
func (c *Calibration) TransmitCtx(rc runctx.Ctx, message string) (Result, error) {
	return TransmitCalibrated(rc, c.proto.CloneChannel(), c.modelName, message, c.Threshold)
}

// TransmitCalibrated is TransmitCtx with the calibration preamble
// already performed: th is the decision threshold calibration produced,
// and ch must be in the exact state calibration left it in (the channel
// TransmitCtx just calibrated, or a clone of a post-calibration
// snapshot). It is the one bit loop every transmission runs.
func TransmitCalibrated(rc runctx.Ctx, ch BitChannel, modelName, message string, th stats.Threshold) (Result, error) {
	if ca, ok := ch.(CtxAware); ok {
		ca.BindCtx(rc)
	}
	stage := ch.Name() + " @ " + modelName
	rc, span := rc.StartSpan("channel.transmit",
		obs.String("channel", ch.Name()),
		obs.String("model", modelName),
		obs.Int("bits", len(message)))
	defer span.End()
	rc, bspan := rc.StartSpan("channel.bits")
	startCycles := ch.Cycles()
	var received strings.Builder
	received.Grow(len(message))
	for i := 0; i < len(message); i++ {
		if err := rc.Step(stage, i, len(message)); err != nil {
			bspan.End()
			return Result{}, err
		}
		m := ch.SendBit(message[i])
		received.WriteByte(th.Classify(m))
	}
	bspan.End()
	// A CtxAware channel aborts mid-bit with a garbage measurement when
	// cancelled; the loop above re-checks before each bit, but a
	// cancellation landing inside the final bit has no next checkpoint,
	// so re-check here lest a corrupted Result pass as completed.
	if err := rc.Err(); err != nil {
		return Result{}, err
	}
	cycles := ch.Cycles() - startCycles
	seconds := float64(cycles) / (ch.FreqGHz() * 1e9)
	rate := 0.0
	if seconds > 0 {
		rate = float64(len(message)) / seconds / 1e3
	}
	return Result{
		Channel:   ch.Name(),
		Model:     modelName,
		Sent:      message,
		Received:  received.String(),
		Cycles:    cycles,
		Seconds:   seconds,
		RateKbps:  rate,
		ErrorRate: stats.BitErrorRate(message, received.String()),
	}, nil
}
