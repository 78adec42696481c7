package leakfuzz

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

var (
	ciOnce   sync.Once
	ciReport Report
)

// ciCampaign runs the fixed CI campaign once per test binary. The
// golden, rediscovery and minimality tests all read the same report, so
// the package pays for the campaign once.
func ciCampaign() Report {
	ciOnce.Do(func() { ciReport = Run(Options{Seed: ciSeed, Budget: ciBudget}) })
	return ciReport
}

// TestCICampaignGolden pins the CI campaign's bytes: the JSON report
// and the final corpus, one genome key per line. Any change to the
// simulator, the contract, mutation or minimization that alters what the
// campaign evaluates, admits or reports fails here. Regenerate
// intentionally with
//
//	go test ./internal/leakfuzz -run TestCICampaignGolden -update
//
// and review the diff like any other code change.
func TestCICampaignGolden(t *testing.T) {
	r := ciCampaign()
	report, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var keys bytes.Buffer
	for _, g := range r.Corpus {
		keys.WriteString(g.jsonText())
		keys.WriteByte('\n')
	}
	for _, f := range []struct {
		name string
		got  []byte
	}{
		{"campaign_seed1.json", append(report, '\n')},
		{"campaign_seed1_corpus.txt", keys.Bytes()},
	} {
		path := filepath.Join("testdata", f.name)
		if *update {
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (generate with -update)", err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s: campaign output differs from the golden file (%d bytes, want %d)",
				f.name, len(f.got), len(want))
		}
	}
}
