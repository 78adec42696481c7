package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// advisoryPath is the Gold 6226 advisory at the unit-test scale: small
// messages, short calibration, the default power clamp.
const advisoryPath = "/v1/advisories/Gold%206226?calib=4"

// TestAdvisoryEndToEnd drives GET /v1/advisories/{model} cold, warm,
// and as text, and proves the acceptance criterion that a repeated
// advisory request performs zero new simulations.
func TestAdvisoryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("advisory sweep spans the model's whole scenario space")
	}
	s := NewServer(Config{Opts: experiments.Opts{Bits: 8}, Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Three concurrent identical cold requests collapse into one sweep,
	// whatever the interleaving: the same bytes for all three, each spec
	// of the shard simulated once, and the other two requests served by
	// the first one's flight or from its cached result.
	const n = 3
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], bodies[i] = tryGet(ts, advisoryPath)
		}()
	}
	wg.Wait()
	for i := range n {
		if codes[i] != 200 {
			t.Fatalf("cold advisory %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("concurrent cold advisories %d and 0 differ", i)
		}
	}
	body1 := bodies[0]
	var res experiments.Result
	if err := json.Unmarshal(body1, &res); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	var adv sweep.Advisory
	if err := json.Unmarshal(blob, &adv); err != nil {
		t.Fatalf("advisory Data does not decode as sweep.Advisory: %v", err)
	}
	if adv.ID != "LFA-GOLD-6226" || adv.Model != "Gold 6226" {
		t.Errorf("advisory header: %+v", adv)
	}
	if len(adv.Affected) == 0 || len(adv.Mitigations) == 0 || adv.Recommended == "" {
		t.Errorf("advisory empty: %d affected, %d mitigations, recommended %q",
			len(adv.Affected), len(adv.Mitigations), adv.Recommended)
	}
	specs, err := sweep.Expand(sweep.AdvisoryFilter("Gold 6226"), sweep.Options{
		Bits: s.opts.Bits, Seed: s.opts.Seed, CalibBits: 4, MaxP: advisoryMaxPDefault})
	if err != nil {
		t.Fatal(err)
	}
	misses := s.Metrics().CacheMisses.Load()
	if misses != uint64(len(specs)) {
		t.Fatalf("%d concurrent cold advisories simulated %d specs, want the shard's %d once each", n, misses, len(specs))
	}
	if served := s.Metrics().Deduplicated.Load() + s.Metrics().CacheHits.Load(); served != n-1 {
		t.Fatalf("%d concurrent cold advisories: %d served by another's sweep, want %d", n, served, n-1)
	}

	// The acceptance criterion: a repeat is byte-identical and performs
	// zero new simulations — the advisory itself is served from cache.
	code, body2 := get(t, ts, advisoryPath)
	if code != 200 {
		t.Fatalf("warm advisory: status %d", code)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("warm advisory bytes differ from cold")
	}
	if got := s.Metrics().CacheMisses.Load(); got != misses {
		t.Fatalf("warm advisory simulated: misses %d -> %d", misses, got)
	}
	if hits := s.Metrics().CacheHits.Load(); hits == 0 {
		t.Error("warm advisory counted no cache hit")
	}

	// ?format=text serves the rendered TFV-style advisory.
	code, text := get(t, ts, advisoryPath+"&format=text")
	if code != 200 {
		t.Fatalf("text advisory: status %d", code)
	}
	for _, want := range []string{"Advisory ID", "LFA-GOLD-6226", "Configurations affected", "Recommendation: apply " + adv.Recommended} {
		if !strings.Contains(string(text), want) {
			t.Errorf("text advisory missing %q", want)
		}
	}
	if got := s.Metrics().CacheMisses.Load(); got != misses {
		t.Errorf("text rendering simulated: misses %d -> %d", misses, got)
	}

	// The advisory's rows live in the shared per-spec channel cache: a
	// sweep of the same shard at the same scale is served entirely warm.
	code, body := postSweep(t, ts, fmt.Sprintf(`{"filter": "model=Gold 6226", "calib": 4, "maxp": %d}`, advisoryMaxPDefault))
	if code != 200 {
		t.Fatalf("follow-up sweep: status %d: %s", code, body)
	}
	if _, rep := decodeSweepStream(t, body); rep.Completed != rep.Specs {
		t.Fatalf("follow-up sweep incomplete: %d/%d", rep.Completed, rep.Specs)
	}
	if got := s.Metrics().CacheMisses.Load(); got != misses {
		t.Errorf("follow-up sweep simulated: misses %d -> %d (endpoints share the row cache)", misses, got)
	}
}

func TestAdvisoryRejectsBadRequestsBeforeAnyWork(t *testing.T) {
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, path string
		code       int
		want       string
	}{
		{"unknown model", "/v1/advisories/i9-9999X", 404, "unknown model"},
		{"bad calib", "/v1/advisories/Gold%206226?calib=1", 400, "out of range"},
		{"negative maxp", "/v1/advisories/Gold%206226?maxp=-1", 400, "want an integer >= 0"},
		{"bad format", "/v1/advisories/Gold%206226?format=xml", 400, "unknown format"},
		{"bad seed", "/v1/advisories/Gold%206226?seed=0", 400, "bad seed"},
		{"oversized bits", "/v1/advisories/Gold%206226?bits=1000000", 400, "bad bits"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := get(t, ts, tc.path)
			if code != tc.code {
				t.Fatalf("status %d, want %d; body: %s", code, tc.code, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Errorf("body %q does not mention %q", body, tc.want)
			}
		})
	}
	if misses := s.Metrics().CacheMisses.Load(); misses != 0 {
		t.Errorf("rejected advisories ran %d simulations", misses)
	}
	if q := s.Metrics().Queued.Load(); q != 0 {
		t.Errorf("queue depth %d after rejections", q)
	}
}

// TestAdvisoryRefusedUnderFullQueue: with the only queue slot held, an
// uncached advisory is refused at once with 429, like an artifact GET,
// instead of leading a new flight every millisecond until the request
// times out into a 504.
func TestAdvisoryRefusedUnderFullQueue(t *testing.T) {
	started := make(chan struct{})
	reg := experiments.NewRegistry(spinningArtifact("spinner", started))
	const timeout = 2 * time.Second
	s := NewServer(Config{Registry: reg, Workers: 1, QueueDepth: 1, Timeout: timeout})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	go s.Artifact(context.Background(), "spinner", s.opts)
	<-started

	start := time.Now()
	code, body := get(t, ts, advisoryPath+"&maxp=1000&bits=8")
	elapsed := time.Since(start)
	if code != http.StatusTooManyRequests {
		t.Fatalf("advisory under a full queue: status %d after %v, want 429: %s", code, elapsed, body)
	}
	if elapsed > timeout/2 {
		t.Errorf("advisory refused after %v, want well before the %v timeout", elapsed, timeout)
	}
	if got := s.Metrics().Rejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	if got := s.Metrics().Timeouts.Load(); got != 0 {
		t.Errorf("timeouts = %d, want 0", got)
	}
}
