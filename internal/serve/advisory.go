package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// Advisory scale defaults. An advisory sweeps the model's whole
// scenario space across every defense, so the defaults trade a little
// fidelity for a response in seconds rather than minutes: the paper
// scales remain reachable with ?calib= and ?maxp=0 (spec defaults).
const (
	advisoryCalibDefault = 6
	advisoryMaxPDefault  = 2000
)

// advisoryKey is the cache/singleflight identity of one rendered
// advisory: the model plus every knob the underlying sweep depends on.
// The "advisory-v1|" prefix keeps the namespace disjoint from artifact
// ("v1|") and channel-run ("chan-v2|") keys.
func advisoryKey(model string, bits int, seed uint64, calib, maxp int) string {
	return fmt.Sprintf("advisory-v1|model=%s|bits=%d|seed=%d|calib=%d|maxp=%d",
		model, bits, seed, calib, maxp)
}

// handleAdvisory renders GET /v1/advisories/{model}: a defense-spanning
// sweep of the model's scenario space reduced to a machine-readable
// security advisory (sweep.Advisory as JSON, or its TFV-style text with
// ?format=text). Advisories are pure functions of (model, bits, seed,
// calib, maxp), so they cache forever under that key and concurrent
// identical requests collapse into one sweep; the sweep itself rides
// the per-spec channel cache, so an advisory whose rows are already
// cached — or a repeat of an advisory — performs zero new simulations.
func (s *Server) handleAdvisory(w http.ResponseWriter, r *http.Request) {
	m, err := spec.ChannelSpec{Model: r.PathValue("model")}.ResolveModel()
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	o, err := s.requestOpts(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	text, err := textFormat(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	calib, err := advisoryScale(r, "calib", advisoryCalibDefault)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	maxp, err := advisoryScale(r, "maxp", advisoryMaxPDefault)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if o.Bits > maxBits {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bits=%d out of range (want 1..%d)", o.Bits, maxBits))
		return
	}
	f := sweep.AdvisoryFilter(m.Name)
	so := sweep.Options{Bits: o.Bits, Seed: o.Seed, CalibBits: calib, MaxP: maxp, Workers: s.workers}
	// Expand up front: a bad ?calib= is a 400 before the cache, flight
	// group, or queue see the request.
	specs, err := sweep.Expand(f, so)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	key := advisoryKey(m.Name, o.Bits, o.Seed, calib, maxp)
	s.respond(w, r, text, func(ctx context.Context) (experiments.Result, error) {
		// The sweep is one job, claimed by the flight leader: with the
		// queue full the request is refused (429), like an artifact GET.
		if res, hit := s.cached(ctx, key); hit {
			return res, nil
		}
		return s.resolve(ctx, key, true, s.advisoryRun(f, so, specs, m))
	})
}

// advisoryRun is the advisory body: a defense-spanning sweep whose rows
// go through the same per-spec channel path as POST /v1/sweeps and
// /v1/channels/run — identical rows collapse across all three
// endpoints. It holds no simulation slot itself: each row takes its
// own.
func (s *Server) advisoryRun(f sweep.Filter, so sweep.Options, specs []spec.ChannelSpec, m cpu.Model) computeFunc {
	return func(ctx context.Context) (experiments.Result, error) {
		rep := sweep.RunSpecs(ctx, f, so, specs, s.probedRun(nil), nil)
		// A sweep cut short (shutdown, or abandonment under
		// CancelAbandoned): an advisory over a partial baseline would be
		// misleading, so surface why instead.
		if err := rep.Err(ctx); err != nil {
			return experiments.Result{}, fmt.Errorf("serve: advisory: %w", err)
		}
		adv, err := sweep.NewAdvisory(rep, m)
		if err != nil {
			return experiments.Result{}, err
		}
		return experiments.Result{
			Name:     "advisory-" + m.Name,
			Ref:      "Section XII",
			Desc:     adv.Title,
			Seed:     rep.Seed,
			Rendered: adv.Render(),
			Data:     adv,
			// Elapsed stays zero: advisories are pure functions of
			// (model, bits, seed, calib, maxp).
		}, nil
	}
}

// advisoryScale parses a non-negative integer scale override (?calib=,
// ?maxp=), 0 meaning "spec defaults"; absence takes the advisory
// default.
func advisoryScale(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q: want an integer >= 0", name, v)
	}
	return n, nil
}
