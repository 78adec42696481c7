package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenOpts is the committed golden scale: small enough that the
// whole matrix regenerates in seconds, fixed forever so the files never
// legitimately change. (Figure 12's fingerprint study dominates the
// cost.)
var goldenOpts = Opts{Bits: 24, Samples: 25}

// goldenSeeds are the two committed seeds; asserting both catches a
// refactor that freezes or ignores seed plumbing, which a single seed
// would miss.
var goldenSeeds = []uint64{1, 2}

// goldenArtifacts are the channel tables, the d-sweep, the defense
// ablation and its advisory, and the fingerprinting figures — the paper
// numbers a refactor of the simulator, the sweep engine or the
// fingerprint loop is most likely to perturb. Every case runs under
// -short too except Figure 12, which takes seconds per seed; full mode
// is the repository's tier-1 gate.
var goldenArtifacts = []struct {
	name      string
	expensive bool
}{
	{"tableII", false},
	{"tableIII", false},
	{"tableIV", false},
	{"tableV", false},
	{"tableVI", false},
	{"figure8", false},
	{"tableXII", false},
	{"advisoryXII", false},
	{"figure11", false},
	{"figure12", true},
}

// TestGoldenRenderings pins the rendered bytes of Tables II-VI, Figure
// 8, the Table XII ablation and its advisory, and Figures 11 and 12 at
// two fixed seeds against committed files: a refactor of the channel
// stack (spec, sweep, attack layers) or of the fingerprint loop that
// drifts any paper number by even one formatting unit fails here
// instead of landing silently. Regenerate intentionally with
//
//	go test ./internal/experiments -run TestGoldenRenderings -update
//
// and review the diff like any other code change. The files are
// generated on amd64; Go's floating point is deterministic per
// platform, so cross-architecture drift would show up as a wholesale
// mismatch, not corruption.
func TestGoldenRenderings(t *testing.T) {
	for _, ga := range goldenArtifacts {
		a, ok := Default().Get(ga.name)
		if !ok {
			t.Fatalf("artifact %q not registered", ga.name)
		}
		for _, seed := range goldenSeeds {
			t.Run(fmt.Sprintf("%s_seed%d", ga.name, seed), func(t *testing.T) {
				if ga.expensive && testing.Short() {
					t.Skip("expensive golden render; run without -short")
				}
				t.Parallel()
				o := goldenOpts
				o.Seed = seed
				_, rendered, err := a.Run(RunCtx{}, o)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", fmt.Sprintf("%s_seed%d.golden", ga.name, seed))
				if *update {
					if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if rendered != string(want) {
					t.Errorf("%s at seed %d drifted from its golden rendering (regenerate with -update if intentional):\ngot:\n%s\nwant:\n%s",
						ga.name, seed, rendered, want)
				}
			})
		}
	}
}
