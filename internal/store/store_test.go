package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/experiments"
	"repro/internal/spec"
)

func testSpec(t testing.TB) spec.ChannelSpec {
	t.Helper()
	cs := spec.ChannelSpec{Mechanism: spec.MechanismEviction, Seed: 7}.Normalize()
	if err := cs.Validate(); err != nil {
		t.Fatal(err)
	}
	return cs
}

func channelFixture(t testing.TB) (string, experiments.Result) {
	t.Helper()
	cs := testSpec(t)
	tres := channel.Result{
		Channel: "dsb-eviction", Model: "Gold 6226",
		Sent: "1010", Received: "1010",
		Cycles: 123456, Seconds: 0.0345, RateKbps: 115.9462337, ErrorRate: 0.015625,
	}
	return ChannelKey(cs, 200), ChannelResult(cs, tres)
}

// artifactFixture models an artifact result whose Data is an arbitrary
// struct — the case that must survive the disk round trip as raw JSON.
func artifactFixture() (string, experiments.Result) {
	type inner struct {
		B string  `json:"zz_listed_first"` // field order != alphabetical: catches map-based re-marshaling
		A float64 `json:"aa_listed_second"`
	}
	return "v1|tableII|seed=3|bits=200", experiments.Result{
		Name: "tableII", Ref: "Table II", Desc: "fixture", Seed: 3,
		Rendered: "row 1\nrow 2\n",
		Data:     inner{B: "x", A: 0.1},
	}
}

// TestRoundTripByteIdentity is the store's core promise: a result
// reloaded from disk re-marshals — compact and indented, the two
// encodings the daemon serves — to exactly the bytes the original
// produced.
func TestRoundTripByteIdentity(t *testing.T) {
	ctx := context.Background()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, fix := range map[string]func() (string, experiments.Result){
		"channel":  func() (string, experiments.Result) { k, r := channelFixture(t); return k, r },
		"artifact": artifactFixture,
	} {
		t.Run(name, func(t *testing.T) {
			key, res := fix()
			if err := st.Put(ctx, key, res); err != nil {
				t.Fatal(err)
			}
			got, ok := st.Get(ctx, key)
			if !ok {
				t.Fatal("Get missed just-Put key")
			}
			for enc, marshal := range map[string]func(any) ([]byte, error){
				"compact":  json.Marshal,
				"indented": func(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") },
			} {
				want, err := marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				blob, err := marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if string(blob) != string(want) {
					t.Errorf("%s bytes differ after reload:\n got %s\nwant %s", enc, blob, want)
				}
			}
		})
	}
}

// TestChannelDataRehydrates proves the sweep engine's type assertion
// keeps working across a restart: a channel entry's Data comes back as
// a concrete channel.Result, not a decoded map.
func TestChannelDataRehydrates(t *testing.T) {
	ctx := context.Background()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, res := channelFixture(t)
	if err := st.Put(ctx, key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(ctx, key)
	if !ok {
		t.Fatal("Get missed")
	}
	tres, ok := got.Data.(channel.Result)
	if !ok {
		t.Fatalf("reloaded Data is %T, want channel.Result", got.Data)
	}
	if tres != res.Data.(channel.Result) {
		t.Errorf("reloaded channel.Result differs: %+v vs %+v", tres, res.Data)
	}
}

// entryFile returns the single entry file of a store holding one key.
func entryFile(t *testing.T, st *Store, key string) string {
	t.Helper()
	path := st.path(key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry file: %v", err)
	}
	return path
}

// TestCorruptionDegradesToMiss walks every defect class the issue
// names — corrupted bytes, truncated write, version mismatch, alien
// key — and requires each to quarantine and miss, never panic or
// return a wrong byte.
func TestCorruptionDegradesToMiss(t *testing.T) {
	ctx := context.Background()
	key, res := channelFixture(t)
	corrupt := map[string]func(t *testing.T, path string){
		"garbage": func(t *testing.T, path string) {
			os.WriteFile(path, []byte("not json at all"), 0o644)
		},
		"truncated": func(t *testing.T, path string) {
			blob, _ := os.ReadFile(path)
			os.WriteFile(path, blob[:len(blob)/2], 0o644)
		},
		"bitflip": func(t *testing.T, path string) {
			blob, _ := os.ReadFile(path)
			// Flip a byte inside the payload, past the envelope header, so
			// only the checksum can catch it.
			blob[len(blob)-10] ^= 0x20
			os.WriteFile(path, blob, 0o644)
		},
		"version": func(t *testing.T, path string) {
			blob, _ := os.ReadFile(path)
			os.WriteFile(path, []byte(strings.Replace(string(blob), `{"v":1,`, `{"v":99,`, 1)), 0o644)
		},
		"alien": func(t *testing.T, path string) {
			// A valid entry for a different key parked under this key's
			// file name (a copied cache, a hash collision).
			other, err := encodeEntry("some-other-key", res)
			if err != nil {
				t.Fatal(err)
			}
			os.WriteFile(path, other, 0o644)
		},
	}
	for name, breakIt := range corrupt {
		t.Run(name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(ctx, key, res); err != nil {
				t.Fatal(err)
			}
			breakIt(t, entryFile(t, st, key))
			if _, ok := st.Get(ctx, key); ok {
				t.Fatal("corrupted entry served as a hit")
			}
			stats := st.Stats()
			if stats.Quarantined != 1 || stats.Misses != 1 {
				t.Errorf("stats = %+v, want 1 quarantined + 1 miss", stats)
			}
			if _, err := os.Stat(filepath.Join(st.Dir(), quarantineDir, filepath.Base(st.path(key)))); err != nil {
				t.Errorf("defective entry not quarantined: %v", err)
			}
			if st.Len() != 0 {
				t.Errorf("Len() = %d after quarantine, want 0", st.Len())
			}
			// The store must recover: a fresh Put over the quarantined key
			// serves again.
			if err := st.Put(ctx, key, res); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Get(ctx, key); !ok {
				t.Error("re-Put after quarantine still misses")
			}
		})
	}
}

// TestUnwritableDirDegrades proves a store whose directory has gone
// bad (deleted and shadowed by a file — the strongest failure even
// root cannot write through) degrades every Put to a counted error and
// every Get to a miss, with no panic.
func TestUnwritableDirDegrades(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "cache")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	key, res := channelFixture(t)
	if err := st.Put(ctx, key, res); err == nil {
		t.Error("Put into a shadowed directory reported success")
	}
	if _, ok := st.Get(ctx, key); ok {
		t.Error("Get from a shadowed directory reported a hit")
	}
	stats := st.Stats()
	if stats.PutErrors != 1 || stats.Misses != 1 || stats.Puts != 0 {
		t.Errorf("stats = %+v, want 1 put error + 1 miss", stats)
	}
}

// TestReadOnlyDirDegrades covers the literal read-only case where the
// process cannot write the directory; root bypasses permission bits,
// so it is skipped when running as root (the shadowed-directory test
// above covers that environment).
func TestReadOnlyDirDegrades(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("permission bits do not bind root")
	}
	ctx := context.Background()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	key, res := channelFixture(t)
	if err := st.Put(ctx, key, res); err == nil {
		t.Error("Put into a read-only directory reported success")
	}
	if _, ok := st.Get(ctx, key); ok {
		t.Error("Get of a never-written key reported a hit")
	}
	if stats := st.Stats(); stats.PutErrors != 1 || stats.Puts != 0 {
		t.Errorf("stats = %+v, want 1 put error, 0 puts", stats)
	}
}

// TestErrResultsNotPersisted: incomplete runs must never become disk
// facts.
func TestErrResultsNotPersisted(t *testing.T) {
	ctx := context.Background()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(ctx, "k", experiments.Result{Name: "x", Err: "context canceled"}); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Errorf("errored result persisted; Len() = %d", st.Len())
	}
}

// TestBytesAccounting: the bytes gauge survives restarts (rescan on
// Open), tracks overwrites, and shrinks on quarantine.
func TestBytesAccounting(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, res := channelFixture(t)
	akey, ares := artifactFixture()
	st.Put(ctx, key, res)
	st.Put(ctx, akey, ares)
	want := st.Stats().Bytes
	if want <= 0 {
		t.Fatalf("bytes gauge %d after two puts", want)
	}
	// Same content re-put: gauge unchanged (old size subtracted).
	st.Put(ctx, key, res)
	if got := st.Stats().Bytes; got != want {
		t.Errorf("bytes after overwrite = %d, want %d", got, want)
	}
	// A fresh Open over the same directory sees the same bytes.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().Bytes; got != want {
		t.Errorf("bytes after reopen = %d, want %d", got, want)
	}
	if st2.Len() != 2 {
		t.Errorf("Len() after reopen = %d, want 2", st2.Len())
	}
}

// TestNilStoreIsNoop: the optional-store contract callers rely on.
func TestNilStoreIsNoop(t *testing.T) {
	ctx := context.Background()
	var st *Store
	if err := st.Put(ctx, "k", experiments.Result{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(ctx, "k"); ok {
		t.Error("nil store hit")
	}
	if st.Len() != 0 || st.Dir() != "" || st.Stats() != (Stats{}) {
		t.Error("nil store not a clean zero")
	}
}

// TestSweepRunFuncLayering: a store-backed sweep runner simulates on a
// miss, writes through, and serves the second call from disk with
// identical numbers.
func TestSweepRunFuncLayering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (small) transmission")
	}
	ctx := context.Background()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cs := testSpec(t)
	cs.P = 50 // keep the transmission fast
	cs = cs.Normalize()
	if err := cs.Validate(); err != nil {
		t.Fatal(err)
	}
	run := SweepRunFunc(st)
	first, err := run(ctx, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d entries after one run, want 1", st.Len())
	}
	second, err := run(ctx, cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("store-served result differs: %+v vs %+v", first, second)
	}
	stats := st.Stats()
	if stats.Hits != 1 || stats.Misses != 1 || stats.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit/1 miss/1 put", stats)
	}
}
