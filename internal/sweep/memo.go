package sweep

import (
	"context"
	"sync"

	"repro/internal/channel"
	"repro/internal/obs"
	"repro/internal/runctx"
	"repro/internal/spec"
)

// Memo is a process-wide calibration snapshot cache keyed by
// spec.CalibrationKey(): the full measurement identity (model,
// mechanism, threading, sink, defense, protocol parameters, calibration
// width, split seed). The first transmission of a scenario runs its
// calibration preamble once and snapshots the calibrated channel; every
// later transmission of a calibration-identical scenario — a repeated
// sweep, a different message through the same channel, a daemon serving
// the same spec again — clones the snapshot and skips straight to its
// message bits.
//
// Byte-identity: a channel clone replays exactly the measurement
// sequence the original would have produced (see channel.Cloneable), so
// a memoized transmission is byte-identical to the unmemoized
// calibrate-then-transmit path. TestMemoizedSweepByteIdentity holds the
// two paths equal across the whole enumerable space.
type Memo struct {
	mu sync.Mutex
	m  map[string]*memoEntry
}

// memoEntry serializes calibration per key: concurrent requests for the
// same key wait for the first to finish instead of calibrating twice.
type memoEntry struct {
	mu  sync.Mutex
	cal *channel.Calibration
}

// memoMaxEntries bounds the cache; each entry pins a calibrated
// simulator snapshot (order of 100 KB). On overflow the whole map is
// dropped — calibration re-runs, bytes never change.
const memoMaxEntries = 4096

// NewMemo returns an empty calibration cache.
func NewMemo() *Memo { return &Memo{m: make(map[string]*memoEntry)} }

// DefaultMemo is the cache behind the default (nil) RunFunc.
var DefaultMemo = NewMemo()

// calibration returns the memoized calibration for cs, running the
// preamble on a miss. A cancelled or failed calibration is not cached,
// so a later uncancelled run retries cleanly.
func (mm *Memo) calibration(rc runctx.Ctx, cs spec.ChannelSpec) (*channel.Calibration, error) {
	key := cs.CalibrationKey()
	mm.mu.Lock()
	if len(mm.m) >= memoMaxEntries {
		mm.m = make(map[string]*memoEntry)
	}
	e, ok := mm.m[key]
	if !ok {
		e = &memoEntry{}
		mm.m[key] = e
	}
	mm.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cal != nil {
		// Traces record the cache decision (like the daemon's hit/miss
		// attrs) so a warm sweep's profile shows where calibration went.
		_, span := rc.StartSpan("sweep.calibration", obs.String("cache", "hit"))
		span.End()
		return e.cal, nil
	}
	crc, span := rc.StartSpan("sweep.calibration", obs.String("cache", "miss"))
	cal, err := cs.CalibrateCtx(crc)
	span.End()
	if err != nil {
		return nil, err
	}
	e.cal = cal
	return cal, nil
}

// Len reports how many calibration snapshots are cached.
func (mm *Memo) Len() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return len(mm.m)
}

// Transmit sends message over cs through mm's calibration snapshot for
// cs, calibrating on a miss. It is byte-identical to cs.TransmitCtx(rc,
// message): the snapshot depends only on the spec, never on the
// message, so any number of messages can share one calibration.
func (mm *Memo) Transmit(rc runctx.Ctx, cs spec.ChannelSpec, message string) (channel.Result, error) {
	cal, err := mm.calibration(rc, cs)
	if err != nil {
		return channel.Result{}, err
	}
	return cal.TransmitCtx(rc, message)
}

// RunFunc returns a sweep runner that transmits through mm's calibration
// snapshots: calibrate-once-per-identity, clone-per-transmission. Its
// reports are byte-identical to Direct's.
func (mm *Memo) RunFunc() RunFunc {
	return func(ctx context.Context, cs spec.ChannelSpec, bits int) (channel.Result, error) {
		return mm.Transmit(runctx.New(ctx, nil), cs, channel.Alternating(bits))
	}
}

// Memoized is the default sweep runner: DefaultMemo's calibration-
// memoizing RunFunc.
func Memoized(ctx context.Context, cs spec.ChannelSpec, bits int) (channel.Result, error) {
	return DefaultMemo.RunFunc()(ctx, cs, bits)
}
