package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
)

// TestRefusedRunStreamCountsNoHits: a /v1/run stream refused with 429
// served nothing, so its cached artifacts must not raise CacheHits —
// a hit counts when its line is written, as on /v1/sweeps.
func TestRefusedRunStreamCountsNoHits(t *testing.T) {
	started := make(chan struct{})
	counting := countingRegistry(new(atomic.Int64), 0, "cached", "uncached").Artifacts()
	reg := experiments.NewRegistry(append([]experiments.Artifact{spinningArtifact("spinner", started)}, counting...)...)
	s := NewServer(Config{Registry: reg, Workers: 1, QueueDepth: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/v1/artifacts/cached"); code != 200 {
		t.Fatalf("warming cached: status %d: %s", code, body)
	}
	// The spinner holds the only job slot (and simulation slot) until
	// Close; it has been admitted once it starts.
	go s.Artifact(context.Background(), "spinner", s.opts)
	<-started

	hits := s.Metrics().CacheHits.Load()
	code, body := get(t, ts, "/v1/run?sel=cached,uncached")
	if code != http.StatusTooManyRequests {
		t.Fatalf("stream with an uncached artifact and a full queue: status %d, want 429: %s", code, body)
	}
	if got := s.Metrics().CacheHits.Load(); got != hits {
		t.Errorf("refused stream counted %d cache hits", got-hits)
	}

	// A fully cached stream needs no job: it is served past the full
	// queue, and now its hit counts.
	code, body = get(t, ts, "/v1/run?sel=cached")
	if code != 200 || !strings.Contains(string(body), `"name":"cached"`) {
		t.Fatalf("fully cached stream: status %d: %s", code, body)
	}
	if got := s.Metrics().CacheHits.Load(); got != hits+1 {
		t.Errorf("served stream counted %d cache hits, want 1", got-hits)
	}
}

// TestStreamTracesNamedForRoute: a ?trace=1 stream's trace carries the
// route it was asked on, for /v1/traces and the final summary line.
func TestStreamTracesNamedForRoute(t *testing.T) {
	s := NewServer(Config{Registry: countingRegistry(new(atomic.Int64), 0, "alpha")})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, run := get(t, ts, "/v1/run?trace=1")
	resp, err := ts.Client().Post(ts.URL+"/v1/sweeps?trace=1", "application/json",
		strings.NewReader(`{"filter": "model=nosuch*"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sweepBody bytes.Buffer
	sweepBody.ReadFrom(resp.Body)
	resp.Body.Close()
	for body, want := range map[string]string{string(run): "GET /v1/run", sweepBody.String(): "POST /v1/sweeps"} {
		lines := strings.Split(strings.TrimSpace(body), "\n")
		var last traceLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("final line %q: %v", lines[len(lines)-1], err)
		}
		if last.Trace.Name != want {
			t.Errorf("trace named %q, want %q", last.Trace.Name, want)
		}
	}
}
