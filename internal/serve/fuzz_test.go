package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// bodyEndpoints are the POST routes whose JSON bodies reach the daemon
// untrusted.
var bodyEndpoints = []string{"/v1/channels/run", "/v1/sweeps", "/v1/shards"}

// FuzzRequestBodies sends arbitrary bodies to the daemon's POST
// endpoints while a spinning artifact holds the only job slot. Whatever
// the body, the answer is a clean 200, 400 or 429 — never a 5xx or a
// panic — and nothing gets past admission: the spinner's simulation
// stays the only one, and no queue slot leaks.
//
//	go test -fuzz=FuzzRequestBodies -fuzztime=10s -run '^FuzzRequestBodies$' ./internal/serve
func FuzzRequestBodies(f *testing.F) {
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		// README's and the verify notes' example bodies.
		{0, `{"spec": {"model": "Xeon E-2174G", "mechanism": "misalignment", "threading": "mt", "d": 3}, "opts": {"bits": 120, "seed": 7}}`},
		{0, `{"spec": {"model": "Xeon E-2288G", "mechanism": "slowswitch"}, "opts": {"bits": 60}}`},
		{1, `{"filter": "mech=eviction,thread=mt", "opts": {"bits": 64, "seed": 7}}`},
		{1, `{"filter": "mech=eviction", "opts": {}}`},
		{1, `{"filter": "model=Gold 6226", "calib": 4, "maxp": 2000}`},
		{1, `{"filter": "model=nosuch*"}`},
		{2, `{"bits": 16, "specs": [{"index": 3, "spec": {"model": "Xeon E-2288G", "seed": 5}}]}`},
		{2, `{"bits": 16, "specs": []}`},
		// The bad-request tests' cases.
		{0, `{"spec": `},
		{0, `{"spec": {"mechanism": "eviction"}, "opts": {}, "wat": 1}`},
		{0, `{"spec": {"model": "Xeon E-2288G", "threading": "mt"}}`},
		{0, `{"spec": {"model": "Xeon E-2174G", "sink": "power", "sgx": true}}`},
		{0, `{"spec": {"mechanism": "acoustic"}}`},
		{0, `{"spec": {}, "opts": {"bits": 1000000}}`},
		{0, `{"spec": {"p": 100000000}}`},
		{1, `{"filter": `},
		{1, `{"filter": "", "wat": 1}`},
		{1, `{"filter": "color=red"}`},
		{1, `{"filter": "d=6..2"}`},
		{1, `{"filter": "model=["}`},
		{1, `{"filter": "", "opts": {"bits": 1000000}}`},
		{1, `{"filter": "", "calib": 1}`},
		{1, `{"filter": "", "maxp": -1}`},
		{2, `{"bits": 0, "specs": []}`},
		{2, `{"bits": 16, "specs": [{"index": 0, "spec": {"model": "Xeon E-2288G", "threading": "mt"}}]}`},
		{2, `{"bits": 16, "specs": [], "wat": 1}`},
	} {
		f.Add(seed.endpoint, seed.body)
	}

	started := make(chan struct{})
	reg := experiments.NewRegistry(spinningArtifact("spinner", started))
	s := NewServer(Config{Registry: reg, Workers: 1, QueueDepth: 1})
	f.Cleanup(s.Close)
	go s.Artifact(context.Background(), "spinner", s.opts)
	<-started
	h := s.Handler()

	f.Fuzz(func(t *testing.T, endpoint uint8, body string) {
		path := bodyEndpoints[int(endpoint)%len(bodyEndpoints)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if m := s.Metrics().CacheMisses.Load(); m != 1 {
			t.Fatalf("POST %s %q: %d simulations, want only the spinner's", path, body, m)
		}
		if q := s.Metrics().Queued.Load(); q != 1 {
			t.Fatalf("POST %s %q: queue depth %d, want only the spinner's 1", path, body, q)
		}
	})
}
