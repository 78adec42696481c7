// Integration tests for the fleet live in an external package so they
// can boot real in-process serve.Server workers: serve imports fleet,
// so an internal test would be an import cycle.
package fleet_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// fleetFilter is the cheap shard the fleet tests sweep: the plain
// non-MT timing eviction channels on every model under every defense
// that applies to them (28 specs, milliseconds each at bits=16).
const fleetFilter = "mech=eviction,thread=nonmt,sink=timing,sgx=false"

// newWorker boots one in-process worker node.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.NewServer(serve.Config{Opts: experiments.Opts{Bits: 16}, Workers: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newCoordinator boots a coordinator node over the worker URLs and
// returns its test server plus the coordinator for counter assertions.
func newCoordinator(t *testing.T, workers ...string) (*httptest.Server, *fleet.Coordinator) {
	t.Helper()
	c, err := fleet.New(workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.NewServer(serve.Config{Opts: experiments.Opts{Bits: 16}, Workers: 4, Fleet: c})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, c
}

func postSweep(t *testing.T, ts *httptest.Server, seed int) []byte {
	t.Helper()
	body := fmt.Sprintf(`{"filter": %q, "opts": {"seed": %d}}`, fleetFilter, seed)
	resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading sweep stream: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("POST /v1/sweeps: status %d: %s", resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

// TestFleetSweepByteIdentity is the fleet acceptance test: a sweep
// scattered across two in-process workers streams an NDJSON response —
// every row, in canonical order, plus the final report — byte-identical
// to the single-node memoized run, at two different base seeds.
func TestFleetSweepByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-node fleet and sweeps it twice")
	}
	single := serve.NewServer(serve.Config{Opts: experiments.Opts{Bits: 16}, Workers: 4})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	w1, w2 := newWorker(t), newWorker(t)
	coordTS, coord := newCoordinator(t, w1.URL, w2.URL)

	for _, seed := range []int{1, 2} {
		want := postSweep(t, singleTS, seed)
		got := postSweep(t, coordTS, seed)
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d: fleet stream differs from single-node:\n%s\nvs\n%s", seed, got, want)
		}
	}
	st := coord.Stats()
	if st.Scatters == 0 || st.MergedRows == 0 {
		t.Errorf("coordinator stats show no fleet activity: %+v", st)
	}
	if st.WorkerFailures != 0 {
		t.Errorf("healthy fleet recorded %d worker failures", st.WorkerFailures)
	}
	// Consistent hashing should have spread the shard: with 28 specs and
	// 64 virtual nodes per worker, both workers own part of the space.
	if st.Workers != 2 || st.LiveWorkers != 2 {
		t.Errorf("want 2 live workers, got %+v", st)
	}
}

// truncatingWorker proxies a healthy worker. Once armed, it kills every
// shard response partway through the stream: it forwards at most one
// NDJSON line, then aborts the connection — a worker dying mid-sweep.
// Unarmed, it forwards responses whole.
func truncatingWorker(t *testing.T, backend *httptest.Server, armed *atomic.Bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := backend.Client().Post(backend.URL+r.URL.Path, r.Header.Get("Content-Type"), r.Body)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			w.WriteHeader(resp.StatusCode)
			return
		}
		if !armed.Load() {
			io.Copy(w, resp.Body)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		if sc.Scan() {
			w.Write(sc.Bytes())
			w.Write([]byte("\n"))
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
		panic(http.ErrAbortHandler) // die mid-stream
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFleetSurvivesWorkerDeath kills one of two workers mid-sweep (it
// delivers at most one row per shard, then drops the connection) and
// asserts the merged stream is still byte-identical to the single-node
// run: the dead worker's unfinished specs re-hash to the survivor, and
// the rows it did deliver are kept.
func TestFleetSurvivesWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-node fleet with a dying worker")
	}
	single := serve.NewServer(serve.Config{Opts: experiments.Opts{Bits: 16}, Workers: 4})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()
	want := postSweep(t, singleTS, 1)

	// Both workers sit behind the proxy; arm the one owning more of the
	// shard. It owns at least half of the 28 specs whatever ports the
	// workers drew, so it dies with specs still to re-hash. The ring
	// hashes the URLs, so a fixed choice owns one spec or none in about
	// 2% of port draws, and then delivers everything or is never
	// contacted.
	var armed [2]atomic.Bool
	urls := make([]string, 2)
	for i := range urls {
		urls[i] = truncatingWorker(t, newWorker(t), &armed[i]).URL
	}
	f, err := sweep.ParseFilter(fleetFilter)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := sweep.Expand(f, sweep.Options{Bits: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ring := fleet.NewRing(urls)
	owned := 0
	for _, cs := range specs {
		if ring.Owner(cs.CacheKey()) == urls[0] {
			owned++
		}
	}
	if 2*owned >= len(specs) {
		armed[0].Store(true)
	} else {
		armed[1].Store(true)
	}
	coordTS, coord := newCoordinator(t, urls...)

	got := postSweep(t, coordTS, 1)
	if !bytes.Equal(got, want) {
		t.Errorf("stream with a dying worker differs from single-node:\n%s\nvs\n%s", got, want)
	}
	st := coord.Stats()
	if st.WorkerFailures != 1 {
		t.Errorf("worker failures = %d, want 1", st.WorkerFailures)
	}
	if st.Rehashes == 0 {
		t.Error("no re-hash rounds recorded; the dead worker's shard was never reassigned")
	}
	if st.LiveWorkers != 1 {
		t.Errorf("live workers = %d, want 1", st.LiveWorkers)
	}

	// The fleet stays serviceable afterwards: a repeat sweep re-hashes
	// everything to the survivor and still merges identically.
	if got := postSweep(t, coordTS, 1); !bytes.Equal(got, want) {
		t.Error("repeat sweep after worker death differs from single-node")
	}
}

// TestFleetNoLiveWorkers pins graceful degradation at the floor: with
// every worker dead the sweep still answers — every row carries Err and
// the report aggregates zero completed specs — rather than hanging or
// crashing the coordinator.
func TestFleetNoLiveWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a coordinator against a dead worker")
	}
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer dead.Close()
	coordTS, coord := newCoordinator(t, dead.URL)

	body := postSweep(t, coordTS, 1)
	var report struct {
		Report *struct {
			Specs     int `json:"specs"`
			Completed int `json:"completed"`
		} `json:"report"`
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := json.Unmarshal(last, &report); err != nil || report.Report == nil {
		t.Fatalf("no report line in degraded sweep: %s", body)
	}
	if report.Report.Completed != 0 || report.Report.Specs == 0 {
		t.Errorf("degraded report = %+v, want 0 completed of a non-empty shard", report.Report)
	}
	if st := coord.Stats(); st.LiveWorkers != 0 {
		t.Errorf("live workers = %d, want 0", st.LiveWorkers)
	}
}
