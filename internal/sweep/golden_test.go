package sweep

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestFullSpaceGolden pins the rendered report of a sweep over the whole
// scenario space — every mechanism, threading, sink, enclave and defense
// on every model — at two seeds, against committed files. The paper
// tables pin only the specs their shards name; this pins the rest (the
// SGX, power and MT specs under each defense among them), so a refactor
// of any channel that drifts any spec's rate or error fails here.
// Regenerate intentionally with
//
//	go test ./internal/sweep -run TestFullSpaceGolden -update
func TestFullSpaceGolden(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			o := Options{Bits: 16, CalibBits: 4, MaxP: 2000, Seed: seed}
			r, err := Run(context.Background(), Filter{}, o, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := r.Render()
			path := filepath.Join("testdata", fmt.Sprintf("fullspace_seed%d.golden", seed))
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from its golden (regenerate with -update if intentional):\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
