// Command fingerprint demonstrates the application-fingerprinting side
// channel (Section XI): it records reference IPC traces for the CNN
// victims, then classifies fresh observations.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	leaky "repro"
	"repro/internal/cmdutil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, writes the demonstration to stdout and returns the
// exit status. A model the side channel cannot run on is refused with
// one line on stderr before any output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fingerprint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 42, "deterministic seed")
	model := fs.String("model", "Gold 6226", "CPU model (Table I name)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	m, err := cmdutil.ResolveModel(*model)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !m.HyperThreading {
		fmt.Fprintf(stderr, "fingerprint: %s has hyper-threading disabled; the side channel needs a victim on the sibling hardware thread\n", m.Name)
		return 1
	}
	suite := leaky.CNNWorkloads()

	fmt.Fprintln(stdout, "recording reference traces (attacker nop-loop IPC at 10 Hz)...")
	refs := make([][]float64, len(suite))
	for i, w := range suite {
		refs[i] = leaky.FingerprintTrace(m, w, *seed+uint64(i))
		fmt.Fprintf(stdout, "  %-12s %d samples\n", w.Name, len(refs[i]))
	}

	fmt.Fprintln(stdout, "\nclassifying fresh victim runs:")
	correct := 0
	for i, w := range suite {
		obs := leaky.FingerprintTrace(m, w, *seed+1000+uint64(i))
		got := leaky.ClassifyTrace(obs, refs)
		status := "MISS"
		if got == i {
			status = "ok"
			correct++
		}
		fmt.Fprintf(stdout, "  victim %-12s -> classified %-12s [%s]\n", w.Name, suite[got].Name, status)
	}
	fmt.Fprintf(stdout, "\n%d/%d victims identified through the frontend side channel\n", correct, len(suite))
	return 0
}
