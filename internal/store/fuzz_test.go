package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/channel"
	"repro/internal/experiments"
)

// fuzzKey is the one key FuzzStoreEntry reads; every seed entry is
// written under it, so mutation starts from entries that hit.
const fuzzKey = "v1|fuzz|bits=24|seed=1|samples=25"

// FuzzStoreEntry hardens envelope decoding against arbitrary entry
// files, which a crash, a full disk, a copied cache or a stray writer
// can leave under any key. Whatever the bytes, Get must not panic. A
// hit must carry no Err (Put never writes one) and must survive
// re-encoding: encodeEntry then decodeEntry yields an equal result. A
// miss must have moved the file into quarantine/, so a bad entry costs
// one re-simulation, not one per request. The corpus is seeded with
// what Put writes for a channel result, JSON-data results and a
// nil-data result, plus truncated and bit-flipped copies of each.
func FuzzStoreEntry(f *testing.F) {
	seedStore, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	_, channelRes := channelFixture(f)
	_, artifactRes := artifactFixture()
	for _, res := range []experiments.Result{
		channelRes,
		artifactRes,
		{Name: "tableIV", Ref: "Table IV", Seed: 2, Rendered: "rows\n",
			Data: []channel.Result{{Channel: "slow-switch", Model: "Gold 6226", Sent: "01", Received: "11", ErrorRate: 0.5}}},
		{Name: "tableI", Ref: "Table I", Rendered: "models\n"},
	} {
		if err := seedStore.Put(context.Background(), fuzzKey, res); err != nil {
			f.Fatal(err)
		}
		blob, err := os.ReadFile(seedStore.path(fuzzKey))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
		for _, at := range []int{len(blob) / 4, len(blob) / 2, 3 * len(blob) / 4} {
			flipped := append([]byte(nil), blob...)
			flipped[at] ^= 1 << (at % 8)
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := st.path(fuzzKey)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		res, hit := st.Get(context.Background(), fuzzKey)
		if !hit {
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("missed entry left in place (stat: %v)", err)
			}
			if _, err := os.Stat(filepath.Join(st.Dir(), quarantineDir, filepath.Base(path))); err != nil {
				t.Fatalf("missed entry not quarantined: %v", err)
			}
			return
		}
		if res.Err != "" {
			t.Fatalf("hit carries Err %q, which Put never writes", res.Err)
		}
		again, err := encodeEntry(fuzzKey, res)
		if err != nil {
			t.Fatalf("hit does not re-encode: %v", err)
		}
		back, err := decodeEntry(again, fuzzKey)
		if err != nil {
			t.Fatalf("re-encoded hit does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("re-encoded hit decodes differently:\n%#v\nvs\n%#v", back, res)
		}
	})
}
