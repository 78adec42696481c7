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
// comma-separated, from eviction, misalignment, slowswitch and bpu. The
// exit status is 1 if any expected mechanism is missing from the
// findings, or if any finding is unclassified ("unknown") — an unknown
// counterexample on the default model is either a simulator regression
// or a new channel, and both deserve a red build. Without -expect only
// unclassified findings fail the run. A bad flag value (an -expect name
// outside that list, a -budget below 1, an unknown -model) exits 2
// before the campaign runs.
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
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/cmdutil"
	"repro/internal/contract"
	"repro/internal/leakfuzz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// mechanisms are the families -expect may name: the ones Classify can
// attribute a counterexample to.
var mechanisms = []contract.Mechanism{contract.Eviction, contract.Misalignment, contract.SlowSwitch, contract.BPU}

// run parses args, runs the campaign, writes the report to stdout and
// returns the exit status. A bad flag value is refused with status 2
// before any output; status 1 means an expected mechanism went missing
// or a finding is unclassified.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leakfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model   = fs.String("model", "Gold 6226", "simulated CPU (Table I name)")
		seed    = fs.Uint64("seed", 1, "campaign seed; same seed and budget reproduce the same report")
		budget  = fs.Int("budget", 2000, "candidate evaluations to spend (execution count, not wall time)")
		corpus  = fs.String("corpus", "", "directory of genome JSON files to seed from and write the final corpus to")
		jsonOut = fs.Bool("json", false, "print the report as JSON instead of text")
		expect  = fs.String("expect", "", "comma-separated mechanisms that must be rediscovered (exit 1 otherwise)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "leakfuzz:", err)
		return 2
	}

	m, err := cmdutil.ResolveModel(*model)
	if err != nil {
		return fail(err)
	}
	if *budget < 1 {
		return fail(fmt.Errorf("-budget %d: a campaign needs at least 1 evaluation", *budget))
	}
	want, err := parseExpect(*expect)
	if err != nil {
		return fail(err)
	}

	opts := leakfuzz.Options{Model: m, Seed: *seed, Budget: *budget}
	if *corpus != "" {
		if opts.Extra, err = loadCorpus(*corpus); err != nil {
			return fail(err)
		}
	}

	report := leakfuzz.Run(opts)

	if *corpus != "" {
		if err := saveCorpus(*corpus, report.Corpus); err != nil {
			return fail(err)
		}
	}

	if *jsonOut {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		render(stdout, report)
	}

	if !verdict(stderr, report, want) {
		return 1
	}
	return 0
}

// parseExpect splits the -expect list, refusing a name that is not a
// mechanism: a misspelled family would otherwise run the whole campaign
// and then fail like a real regression.
func parseExpect(list string) ([]string, error) {
	var want []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !slices.Contains(mechanisms, contract.Mechanism(name)) {
			return nil, fmt.Errorf("-expect: unknown mechanism %q (want one of %v)", name, mechanisms)
		}
		want = append(want, name)
	}
	return want, nil
}

// verdict decides the exit status: every expected mechanism present,
// and no unclassified counterexamples. Problems print to stderr so the
// JSON report stays clean on stdout.
func verdict(stderr io.Writer, r leakfuzz.Report, want []string) bool {
	found := map[string]bool{}
	ok := true
	for _, f := range r.Findings {
		found[string(f.Mechanism)] = true
		if f.Mechanism == contract.Unknown {
			fmt.Fprintf(stderr, "leakfuzz: unclassified counterexample at execution %d: %s\n",
				f.Executions, f.Divergence)
			ok = false
		}
	}
	for _, w := range want {
		if !found[w] {
			fmt.Fprintf(stderr, "leakfuzz: expected mechanism %q not rediscovered (found: %s)\n",
				w, strings.Join(r.Mechanisms(), ", "))
			ok = false
		}
	}
	return ok
}

func render(w io.Writer, r leakfuzz.Report) {
	fmt.Fprintf(w, "leakfuzz: model %q seed %d budget %d\n", r.Model, r.Seed, r.Budget)
	fmt.Fprintf(w, "  executions %d, corpus %d, coverage features %d\n",
		r.Executions, r.CorpusSize, r.Features)
	if len(r.Findings) == 0 {
		fmt.Fprintln(w, "  no leakage counterexamples")
		return
	}
	for _, f := range r.Findings {
		fmt.Fprintf(w, "  [%s] at execution %d: %s\n", f.Mechanism, f.Executions, f.Divergence)
		g, err := json.Marshal(f.Genome)
		if err != nil {
			g = []byte(fmt.Sprintf("marshal: %v", err))
		}
		fmt.Fprintf(w, "    genome %s\n", g)
		if f.Spec != nil {
			fmt.Fprintf(w, "    spec   %s\n", f.Spec)
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
