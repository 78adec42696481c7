package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runctx"
	"repro/internal/spec"
	"repro/internal/store"
)

// ErrBadSpec reports a channel-run request whose spec or options failed
// validation (400). The request is rejected before touching the job
// queue or a simulation slot.
var ErrBadSpec = errors.New("serve: invalid channel spec")

// mergeOpts applies a request's overrides onto the server's base
// options — set fields win, unset fields fall back — and normalizes
// the result. Every endpoint that takes request options goes through
// this one merge, so /v1/channels/run and /v1/sweeps can never
// disagree on the effective options (and hence cache keys) for
// identical inputs.
func (s *Server) mergeOpts(o experiments.Opts) experiments.Opts {
	base := s.opts
	if o.Bits > 0 {
		base.Bits = o.Bits
	}
	if o.Seed != 0 {
		base.Seed = o.Seed
	}
	if o.Samples > 0 {
		base.Samples = o.Samples
	}
	return base.Normalize()
}

// retryBusy runs fn until it stops reporting ErrBusy. A caller that
// admits once per request (admitJob=false flights) can only see
// ErrBusy by joining a flight whose leader — a single-artifact or
// single-channel request — lost the admission race; such flights are
// short-lived, so back off briefly and retry until this caller leads
// one itself, or its context expires.
func retryBusy(ctx context.Context, fn func() (experiments.Result, error)) (experiments.Result, error) {
	for {
		res, err := fn()
		if err == nil || !errors.Is(err, ErrBusy) {
			return res, err
		}
		select {
		case <-ctx.Done():
			return experiments.Result{}, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// ChannelRun transmits an alternating message of o.Bits bits over the
// scenario cs describes and returns the run as a Result (Data is the
// channel.Result, Rendered its table row). Like artifacts, channel
// runs are pure functions of (spec, bits): results are cached forever
// under the spec's canonical key, concurrent identical requests
// collapse into one simulation, and the simulation competes for the
// same job-queue and worker slots as the artifact endpoints.
//
// A spec that fails validation is rejected with ErrBadSpec before any
// slot is consumed. Unset o fields fall back to the server's base
// options — the same override semantics ?seed=/?bits= give the GET
// endpoints — and a spec without a seed takes the resulting effective
// seed.
func (s *Server) ChannelRun(ctx context.Context, cs spec.ChannelSpec, o experiments.Opts) (experiments.Result, error) {
	o = s.mergeOpts(o)
	if cs.Seed == 0 {
		cs.Seed = o.Seed
	}
	cs = cs.Normalize()
	if err := cs.Validate(); err != nil {
		return experiments.Result{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if o.Bits > maxBits {
		return experiments.Result{}, fmt.Errorf("%w: bits=%d out of range (want 1..%d)", ErrBadSpec, o.Bits, maxBits)
	}
	key := store.ChannelKey(cs, o.Bits)
	if res, hit := s.cached(ctx, key); hit {
		return res, nil
	}
	return s.channelResult(ctx, key, cs, o.Bits, true)
}

// channelResult resolves one channel run — a single POST
// /v1/channels/run or a sweep row — under key, its store.ChannelKey:
// the spec's versioned canonical key plus the message length, so
// concurrent identical runs from any endpoint collapse into one
// simulation. The key is shared with the persistent store, leakysweep's
// -store and the fleet's consistent-hash ring. The caller has already
// probed the cache (a sweep probes its whole shard up front), so the
// only probe left is resolve's re-probe inside the flight. With
// admitJob set the flight leader claims one job-queue slot (the
// single-request admission unit); sweeps admit once per request
// instead and pass admitJob false. cs must be normalized and valid.
func (s *Server) channelResult(ctx context.Context, key string, cs spec.ChannelSpec, bits int, admitJob bool) (experiments.Result, error) {
	return s.resolve(ctx, key, admitJob, s.onSlot(obs.String("spec", cs.String()), func(ctx context.Context) (experiments.Result, error) {
		tres, err := cs.TransmitCtx(runctx.New(ctx, nil), channel.Alternating(bits))
		if err != nil {
			return experiments.Result{}, err
		}
		// store.ChannelResult is the shared Result shape (Elapsed stays
		// zero: responses are pure functions of (spec, bits)), so the
		// daemon, leakysweep -store, and fleet workers persist identical
		// bytes for identical runs.
		return store.ChannelResult(cs, tres), nil
	}))
}
