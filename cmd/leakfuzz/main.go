// Command leakfuzz runs one coverage-guided leakage-fuzzing campaign
// against the simulated frontend's leakage contract. It mutates
// secret-pair genomes, executes both arms on private simulator cores,
// and reports every contract divergence as a minimized, classified
// counterexample. Campaigns are deterministic: the same -model, -seed
// and -budget always produce the same report bytes.
//
// Usage:
//
//	leakfuzz                                       # default smoke campaign
//	leakfuzz -seed 1 -budget 2000 -expect eviction,misalignment,slowswitch
//	leakfuzz -json                                 # full report as JSON
//	leakfuzz -corpus ./corpus                      # persist/reload the corpus
//
// -expect names the mechanisms the campaign must rediscover,
// comma-separated. The exit status is 1 if any expected mechanism is
// missing from the findings, or if any finding is unclassified
// ("unknown") — an unknown counterexample on the default model is
// either a simulator regression or a new channel, and both deserve a
// red build. Without -expect only unclassified findings fail the run.
//
// -corpus points at a directory of genome JSON files: every *.json in
// it seeds the campaign, and the final coverage-increasing corpus is
// written back (content-addressed, so reruns are idempotent).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cmdutil"
	"repro/internal/contract"
	"repro/internal/leakfuzz"
)

func main() {
	var (
		model   = flag.String("model", "Gold 6226", "simulated CPU (Table I name)")
		seed    = flag.Uint64("seed", 1, "campaign seed; same seed and budget reproduce the same report")
		budget  = flag.Int("budget", 2000, "candidate evaluations to spend (execution count, not wall time)")
		corpus  = flag.String("corpus", "", "directory of genome JSON files to seed from and write the final corpus to")
		jsonOut = flag.Bool("json", false, "print the report as JSON instead of text")
		expect  = flag.String("expect", "", "comma-separated mechanisms that must be rediscovered (exit 1 otherwise)")
	)
	flag.Parse()

	m, err := cmdutil.ResolveModel(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakfuzz:", err)
		os.Exit(2)
	}

	opts := leakfuzz.Options{Model: m, Seed: *seed, Budget: *budget}
	if *corpus != "" {
		opts.Extra, err = loadCorpus(*corpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, "leakfuzz:", err)
			os.Exit(2)
		}
	}

	report := leakfuzz.Run(opts)

	if *corpus != "" {
		if err := saveCorpus(*corpus, report.Corpus); err != nil {
			fmt.Fprintln(os.Stderr, "leakfuzz:", err)
			os.Exit(2)
		}
	}

	if *jsonOut {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "leakfuzz:", err)
			os.Exit(2)
		}
		fmt.Println(string(b))
	} else {
		render(report)
	}

	if !verdict(report, *expect) {
		os.Exit(1)
	}
}

// verdict decides the exit status: every expected mechanism present,
// and no unclassified counterexamples. Problems print to stderr so the
// JSON report stays clean on stdout.
func verdict(r leakfuzz.Report, expect string) bool {
	found := map[string]bool{}
	ok := true
	for _, f := range r.Findings {
		found[string(f.Mechanism)] = true
		if f.Mechanism == contract.Unknown {
			fmt.Fprintf(os.Stderr, "leakfuzz: unclassified counterexample at execution %d: %s\n",
				f.Executions, f.Divergence)
			ok = false
		}
	}
	if expect != "" {
		for _, want := range strings.Split(expect, ",") {
			want = strings.TrimSpace(want)
			if want == "" {
				continue
			}
			if !found[want] {
				fmt.Fprintf(os.Stderr, "leakfuzz: expected mechanism %q not rediscovered (found: %s)\n",
					want, strings.Join(r.Mechanisms(), ", "))
				ok = false
			}
		}
	}
	return ok
}

func render(r leakfuzz.Report) {
	fmt.Printf("leakfuzz: model %q seed %d budget %d\n", r.Model, r.Seed, r.Budget)
	fmt.Printf("  executions %d, corpus %d, coverage features %d\n",
		r.Executions, r.CorpusSize, r.Features)
	if len(r.Findings) == 0 {
		fmt.Println("  no leakage counterexamples")
		return
	}
	for _, f := range r.Findings {
		fmt.Printf("  [%s] at execution %d: %s\n", f.Mechanism, f.Executions, f.Divergence)
		g, err := json.Marshal(f.Genome)
		if err != nil {
			g = []byte(fmt.Sprintf("marshal: %v", err))
		}
		fmt.Printf("    genome %s\n", g)
		if f.Spec != nil {
			fmt.Printf("    spec   %s\n", f.Spec)
		}
	}
}

// loadCorpus reads every *.json genome in dir as extra campaign seeds,
// in sorted name order so the campaign stays deterministic.
func loadCorpus(dir string) ([]leakfuzz.Genome, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out []leakfuzz.Genome
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var g leakfuzz.Genome
		if err := json.Unmarshal(b, &g); err != nil {
			return nil, fmt.Errorf("corpus %s: %w", name, err)
		}
		out = append(out, g)
	}
	return out, nil
}

// saveCorpus writes the final corpus back to dir, one content-addressed
// file per genome, creating the directory if needed.
func saveCorpus(dir string, corpus []leakfuzz.Genome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, g := range corpus {
		b, err := json.Marshal(g)
		if err != nil {
			return err
		}
		h := fnv.New64a()
		h.Write(b)
		name := filepath.Join(dir, fmt.Sprintf("%016x.json", h.Sum64()))
		if err := os.WriteFile(name, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
