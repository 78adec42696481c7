package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/store"
	"repro/internal/sweep"
)

// newStore opens a store in a fresh temp dir (or an existing one when
// dir is non-empty, simulating a restart over the same -cache-dir).
func newStore(t *testing.T, dir string) (*store.Store, string) {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

// TestRestartServesIdenticalBytesFromStore is the kill-and-restart
// acceptance test: a brand-new server process (fresh LRU, fresh flight
// group, fresh registry closures) over the same -cache-dir serves
// byte-identical artifact, channel-run, and sweep responses with zero
// simulations — every result comes off disk.
func TestRestartServesIdenticalBytesFromStore(t *testing.T) {
	st1, dir := newStore(t, "")
	var runs1 atomic.Int64
	s1 := NewServer(Config{
		Registry: countingRegistry(&runs1, 0, "alpha", "beta"),
		Opts:     experiments.Opts{Bits: 16},
		Workers:  4,
		Store:    st1,
	})
	ts1 := httptest.NewServer(s1.Handler())

	const artifactPath = "/v1/artifacts/alpha?bits=24&seed=7"
	sweepBody := fmt.Sprintf(`{"filter": %q, "opts": {"seed": 3}}`, sweepFilter)

	code, art1 := get(t, ts1, artifactPath)
	if code != 200 {
		t.Fatalf("artifact: status %d: %s", code, art1)
	}
	code, sweep1 := postSweep(t, ts1, sweepBody)
	if code != 200 {
		t.Fatalf("sweep: status %d: %s", code, sweep1)
	}
	if runs1.Load() == 0 {
		t.Fatal("first process ran no simulations; test proves nothing")
	}
	if misses := s1.Metrics().CacheMisses.Load(); misses == 0 {
		t.Fatal("first process had no cache misses; test proves nothing")
	}
	ts1.Close() // kill the first process

	// Restart: everything in-memory is new; only the directory survives.
	st2, _ := newStore(t, dir)
	var runs2 atomic.Int64
	s2 := NewServer(Config{
		Registry: countingRegistry(&runs2, 0, "alpha", "beta"),
		Opts:     experiments.Opts{Bits: 16},
		Workers:  4,
		Store:    st2,
	})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	code, art2 := get(t, ts2, artifactPath)
	if code != 200 {
		t.Fatalf("artifact after restart: status %d: %s", code, art2)
	}
	if string(art2) != string(art1) {
		t.Errorf("artifact bytes differ after restart:\n%s\nvs\n%s", art2, art1)
	}
	code, sweep2 := postSweep(t, ts2, sweepBody)
	if code != 200 {
		t.Fatalf("sweep after restart: status %d: %s", code, sweep2)
	}
	if string(sweep2) != string(sweep1) {
		t.Errorf("sweep stream differs after restart:\n%s\nvs\n%s", sweep2, sweep1)
	}

	if n := runs2.Load(); n != 0 {
		t.Errorf("restarted process ran %d simulations, want 0", n)
	}
	if misses := s2.Metrics().CacheMisses.Load(); misses != 0 {
		t.Errorf("restarted process counted %d cache misses, want 0", misses)
	}
	if hits := st2.Stats().Hits; hits == 0 {
		t.Error("restarted store served no hits; responses did not come off disk")
	}
	// A second pass is all LRU (the store probes promoted every result),
	// so the disk is read exactly once per result per process lifetime.
	before := st2.Stats().Hits
	get(t, ts2, artifactPath)
	postSweep(t, ts2, sweepBody)
	if hits := st2.Stats().Hits; hits != before {
		t.Errorf("warm re-request read the store again (%d -> %d hits), want LRU only", before, hits)
	}
}

// TestPrecomputeMaterializesFilterShard is the -precompute acceptance
// test: precomputing a filter materializes exactly the filter's shard
// into the store, and a subsequent cold-LRU sweep over the same filter
// is 100% store hits with zero simulations.
func TestPrecomputeMaterializesFilterShard(t *testing.T) {
	st1, dir := newStore(t, "")
	s1 := NewServer(Config{Opts: experiments.Opts{Bits: 16}, Workers: 4, Store: st1})
	report, err := s1.Precompute(context.Background(), sweepFilter, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	f, err := sweep.ParseFilter(sweepFilter)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := sweep.Expand(f, sweep.Options{Bits: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("filter expands to nothing; test proves nothing")
	}
	if report.Completed != len(specs) {
		t.Fatalf("precompute completed %d of %d specs", report.Completed, len(specs))
	}
	if n := st1.Len(); n != len(specs) {
		t.Errorf("store holds %d entries after precompute, want exactly the filter's %d", n, len(specs))
	}

	// A cold-LRU process over the same dir sweeps the filter without a
	// single store miss or simulation.
	st2, _ := newStore(t, dir)
	s2 := NewServer(Config{Opts: experiments.Opts{Bits: 16}, Workers: 4, Store: st2})
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	code, body := postSweep(t, ts, fmt.Sprintf(`{"filter": %q, "opts": {}}`, sweepFilter))
	if code != 200 {
		t.Fatalf("sweep: status %d: %s", code, body)
	}
	if misses := s2.Metrics().CacheMisses.Load(); misses != 0 {
		t.Errorf("cold-LRU sweep simulated %d specs, want 0", misses)
	}
	stats := st2.Stats()
	if stats.Misses != 0 {
		t.Errorf("cold-LRU sweep missed the store %d times, want 0", stats.Misses)
	}
	if stats.Hits != uint64(len(specs)) {
		t.Errorf("cold-LRU sweep hit the store %d times, want %d (100%% of the shard)", stats.Hits, len(specs))
	}

	// Precompute is idempotent: a second run over a warm store performs
	// zero simulations and writes nothing new.
	if _, err := s2.Precompute(context.Background(), sweepFilter, 0, 0); err != nil {
		t.Fatal(err)
	}
	if misses := s2.Metrics().CacheMisses.Load(); misses != 0 {
		t.Errorf("repeat precompute simulated %d specs, want 0", misses)
	}
	if puts := st2.Stats().Puts; puts != 0 {
		t.Errorf("repeat precompute wrote %d entries, want 0", puts)
	}
}

// TestPrecomputeRequiresStore pins the error contract: precompute
// without a -cache-dir has nowhere to materialize into.
func TestPrecomputeRequiresStore(t *testing.T) {
	s := NewServer(Config{})
	if _, err := s.Precompute(context.Background(), "", 0, 0); err == nil {
		t.Fatal("Precompute without a store succeeded, want error")
	}
}

// TestSweepRowProbesStoreTwice: a simulated sweep row reads the store
// twice — the shard probe before admission, and resolve's re-probe in
// the row's flight — and no third time on the way in.
func TestSweepRowProbesStoreTwice(t *testing.T) {
	st, _ := newStore(t, "")
	s := NewServer(Config{Workers: 2, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := postSweep(t, ts, `{"filter": "mech=slowswitch,defense=none", "opts": {"bits": 8}, "calib": 4}`)
	if code != 200 {
		t.Fatalf("sweep: status %d: %s", code, body)
	}
	sims := s.Metrics().CacheMisses.Load()
	if sims != 4 {
		t.Fatalf("cold slow-switch sweep simulated %d rows, want 4 (one per model)", sims)
	}
	if got := st.Stats().Misses; got != 2*sims {
		t.Errorf("cold sweep of %d simulated rows missed the store %d times, want %d (two probes per row)", sims, got, 2*sims)
	}
}
