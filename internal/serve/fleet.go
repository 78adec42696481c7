package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// fleetSweep is the coordinator branch of POST /v1/sweeps: scatter the
// expanded shard across the fleet's workers, stream the merged rows in
// canonical enumeration order (re-ordering the arrival-order delivery
// on top of an ordered-prefix buffer, exactly as sweep.RunSpecs does
// for its own workers), and aggregate the final report locally. Rows
// are pure functions of their specs, so the report is byte-identical
// to the single-node run whatever the fleet did to produce it.
func (s *Server) fleetSweep(ctx context.Context, f sweep.Filter, so sweep.Options, specs []spec.ChannelSpec, emit func(sweep.Row)) sweep.Report {
	fctx, span := obs.Start(ctx, "fleet.sweep",
		obs.Int("specs", len(specs)), obs.Int("workers", len(s.fleet.Workers())))
	defer span.End()
	// The coordinator's onRow callback runs serially (the coordinator
	// holds its merge lock across it), so the ordered-prefix state needs
	// no lock of its own.
	rowBuf := make([]sweep.Row, len(specs))
	done := make([]bool, len(specs))
	next := 0
	rows := s.fleet.Sweep(fctx, specs, so.Bits, func(i int, row sweep.Row) {
		if emit == nil {
			return
		}
		rowBuf[i], done[i] = row, true
		for next < len(specs) && done[next] {
			emit(rowBuf[next])
			next++
		}
	})
	_, mspan := obs.Start(fctx, "fleet.merge", obs.Int("rows", len(rows)))
	report := sweep.NewReport(f, so, rows)
	mspan.End()
	return report
}

// handleShards executes POST /v1/shards, the fleet-internal worker side
// of a scattered sweep: an explicit list of already-expanded specs
// (seeds split by the coordinator) plus the message length, answered
// with an NDJSON stream of indexed rows. Each spec runs through the
// same layered cache / singleflight path as every other endpoint, so a
// worker whose -cache-dir is warm serves its whole shard with zero
// simulations. Admission mirrors /v1/sweeps: a shard needing any
// simulation is one job against the queue; a fully cached shard
// bypasses it (and 429 tells the coordinator to back off and retry).
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	// Shards carry the expanded spec list inline; at ~200 bytes per
	// spec a 1 MiB bound comfortably fits the full enumerable space.
	var req fleet.ShardRequest
	if !s.decodeBody(w, r, 1<<20, &req) {
		return
	}
	if req.Bits <= 0 || req.Bits > maxBits {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bits=%d out of range (want 1..%d)", req.Bits, maxBits))
		return
	}
	specs := make([]spec.ChannelSpec, len(req.Specs))
	for i, is := range req.Specs {
		cs := is.Spec.Normalize()
		if err := cs.Validate(); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("spec %d: %v", is.Index, err))
			return
		}
		specs[i] = cs
	}
	s.metrics.ShardRequests.Add(1)

	probed, missing := s.probeSpecs(r.Context(), specs, req.Bits)
	// A coordinator that disconnects mid-shard follows the server's
	// abandonment policy, like any other streaming client: by default
	// the shard keeps simulating into the cache (the re-scatter after a
	// coordinator restart then finds it warm).
	sw, runCtx, end := s.openStream(w, r, missing, "specs", false)
	if sw == nil {
		return
	}
	defer end()
	// RunSpecs builds rows exactly as a single-node sweep would (same
	// Row construction, same worker pool, same per-spec spans) and
	// emits them in slice order, so the k-th emission is req.Specs[k].
	k := 0
	so := sweep.Options{Bits: req.Bits, Workers: s.workers}
	sweep.RunSpecs(runCtx, sweep.Filter{}, so, specs, s.probedRun(probed), func(row sweep.Row) {
		sw.writeLine(fleet.IndexedRow{Index: req.Specs[k].Index, Row: row})
		k++
		sw.flush()
	})
}

// Precompute materializes the filter's shard of the enumerable scenario
// space into the persistent store ahead of traffic: expand, run every
// spec through the layered cache path (already-stored specs cost one
// disk read; the rest simulate and write through), and return the
// aggregate report. After it returns, a cold-LRU daemon — or a fleet
// worker owning any slice of the shard — serves the whole filter from
// the store with zero simulations. calib and maxp follow the sweep
// scale-override semantics (0 keeps spec defaults).
func (s *Server) Precompute(ctx context.Context, filter string, calib, maxp int) (sweep.Report, error) {
	if s.store == nil {
		return sweep.Report{}, errors.New("serve: precompute requires a persistent store (-cache-dir)")
	}
	f, err := sweep.ParseFilter(filter)
	if err != nil {
		return sweep.Report{}, err
	}
	o := s.opts
	so := sweep.Options{Bits: o.Bits, Seed: o.Seed, CalibBits: calib, MaxP: maxp, Workers: s.workers}
	specs, err := sweep.Expand(f, so)
	if err != nil {
		return sweep.Report{}, err
	}
	pctx, span := obs.Start(ctx, "precompute",
		obs.String("filter", filter), obs.Int("specs", len(specs)))
	defer span.End()
	probed, _ := s.probeSpecs(pctx, specs, so.Bits)
	return sweep.RunSpecs(pctx, f, so, specs, s.probedRun(probed), nil), nil
}
