// Quickstart: observe the three frontend paths' timing signatures — the
// root cause behind every attack in the paper (Figure 2).
package main

import (
	"fmt"

	leaky "repro"
	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	fmt.Println("Leaky Frontends quickstart: frontend path timing on the simulated Gold 6226")
	fmt.Println()
	fmt.Print(experiments.TableI())
	fmt.Println()

	data, rendered, err := experiments.Figure2(experiments.RunCtx{}, experiments.Opts{Bits: 50, Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Println(rendered)
	fmt.Printf("mean cycles per 8 chain passes: DSB=%.0f  LSD=%.0f  MITE+DSB=%.0f\n",
		stats.Mean(data.DSB), stats.Mean(data.LSD), stats.Mean(data.MITE))
	fmt.Println("the gaps between these paths are the covert channel.")
	fmt.Println()

	// The registry runs any subset of the paper's artifacts concurrently;
	// per-artifact seed splitting keeps the output identical to a serial
	// run no matter the worker count.
	results, err := leaky.RunExperiments([]string{"figure4", "tableIV"}, leaky.ExperimentOpts{Bits: 50, Seed: 7}, 2)
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%s finished in %.2fs\n", r.Ref, r.Elapsed.Seconds())
	}
}
