package serve

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/channel"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/sweep"
)

// sweepRequest is the POST /v1/sweeps body. Filter is the sweep query
// grammar (empty sweeps the whole space); Opts follows the channel-run
// semantics (bits scales every message, seed is the base seed the
// per-spec seeds are split from, samples is ignored); Calib and MaxP
// are the sweep scale overrides (0 keeps spec defaults).
type sweepRequest struct {
	Filter string           `json:"filter"`
	Opts   experiments.Opts `json:"opts"`
	Calib  int              `json:"calib,omitempty"`
	MaxP   int              `json:"maxp,omitempty"`
}

// sweepReportLine is the NDJSON envelope of the stream's final line;
// row lines are bare sweep.Row objects, so a client can tail per-spec
// results and still tell the aggregate apart.
type sweepReportLine struct {
	Report sweep.Report `json:"report"`
}

// handleSweeps executes a whole shard of the scenario space in one
// request: the filter expands through the enumerated space, each spec
// runs through the same cache / singleflight path as POST
// /v1/channels/run (cache hits stream instantly, concurrent identical
// specs collapse across endpoints), and the response is an NDJSON
// stream of per-spec rows in canonical enumeration order followed by
// one {"report": ...} aggregate line. A sweep needing any simulation
// counts as one job against the queue, like a /v1/run stream.
//
// Malformed bodies, filters, and scale overrides are 400 before any
// work. Cancellation (server shutdown, or client disconnect under
// CancelAbandoned) yields partial results: remaining rows carry Err,
// and the report still aggregates what completed.
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	traced, err := boolParam(r.URL.Query().Get("trace"), "trace")
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var req sweepRequest
	if !s.decodeBody(w, r, 64<<10, &req) {
		return
	}
	f, err := sweep.ParseFilter(req.Filter)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	o := s.mergeOpts(req.Opts)
	if o.Bits > maxBits {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bits=%d out of range (want 1..%d)", o.Bits, maxBits))
		return
	}
	if req.MaxP < 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("maxp=%d out of range (want >= 0)", req.MaxP))
		return
	}
	so := sweep.Options{Bits: o.Bits, Seed: o.Seed, CalibBits: req.Calib, MaxP: req.MaxP, Workers: s.workers}
	specs, err := sweep.Expand(f, so)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.Sweeps.Add(1)

	// Like /v1/run: partition the shard into results already cached and
	// specs needing a simulation, and serve the hits from this snapshot
	// — so the admission decision (a sweep needing any simulation is
	// one job; a fully cached one bypasses the queue) cannot be
	// invalidated by an eviction racing in between probe and run.
	//
	// A fleet coordinator skips both probe and admission: its specs run
	// on the workers' queues, not the local one, so a coordinator never
	// 429s a sweep for local queue pressure.
	var probed map[string]channel.Result
	missing := 0
	if s.fleet == nil {
		probed, missing = s.probeSpecs(r.Context(), specs, so.Bits)
	}
	sw, runCtx, end := s.openStream(w, r, missing, "specs", traced, obs.String("filter", req.Filter))
	if sw == nil {
		return
	}
	defer end()
	emit := func(row sweep.Row) {
		sw.writeLine(row)
		sw.flush()
	}
	var report sweep.Report
	if s.fleet != nil {
		report = s.fleetSweep(runCtx, f, so, specs, emit)
	} else {
		report = sweep.RunSpecs(runCtx, f, so, specs, s.probedRun(probed), emit)
	}
	sw.writeLine(sweepReportLine{Report: report})
}

// probeSpecs probes the layered cache (LRU, then store) for every spec
// in the shard at the given message length, returning the snapshot of
// hits keyed by channel-run key and the count of specs that would need
// a simulation. Store hits are promoted into the LRU by the probe, so
// a restarted daemon's first sweep over a warm -cache-dir reads each
// result from disk exactly once and simulates nothing.
func (s *Server) probeSpecs(ctx context.Context, specs []spec.ChannelSpec, bits int) (map[string]channel.Result, int) {
	probed := make(map[string]channel.Result, len(specs))
	missing := 0
	for _, cs := range specs {
		key := store.ChannelKey(cs, bits)
		if res, hit := s.cacheGet(ctx, key); hit {
			if tres, ok := res.Data.(channel.Result); ok {
				probed[key] = tres
				continue
			}
		}
		missing++
	}
	return probed, missing
}

// probedRun is the sweep RunFunc shared by /v1/sweeps, /v1/shards, and
// Precompute: probed hits are served from the snapshot (counted as
// cache hits only now, when they are actually served), everything else
// goes through the cached channel path without per-spec admission —
// the caller already made the shard's one admission decision.
func (s *Server) probedRun(probed map[string]channel.Result) sweep.RunFunc {
	return func(ctx context.Context, cs spec.ChannelSpec, bits int) (channel.Result, error) {
		key := store.ChannelKey(cs, bits)
		if tres, ok := probed[key]; ok {
			s.metrics.CacheHits.Add(1)
			_, hsp := obs.Start(ctx, "cache.hit", obs.String("cachekey", key))
			hsp.End()
			return tres, nil
		}
		res, err := retryBusy(ctx, func() (experiments.Result, error) {
			return s.channelResult(ctx, key, cs, bits, false)
		})
		if err != nil {
			return channel.Result{}, err
		}
		tres, ok := res.Data.(channel.Result)
		if !ok {
			return channel.Result{}, fmt.Errorf("serve: cached %q is not a channel result", res.Name)
		}
		return tres, nil
	}
}
