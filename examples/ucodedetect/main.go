// Microcode detection example: fingerprint the machine's microcode patch
// level from unprivileged frontend timing (Section X, Figure 10).
package main

import (
	"fmt"

	"repro/internal/experiments"
)

func main() {
	_, rendered, err := experiments.Figure10(experiments.RunCtx{}, experiments.Opts{Seed: 5})
	if err != nil {
		panic(err)
	}
	fmt.Println(rendered)
	fmt.Println("a small loop that fits the LSD behaves differently only when the")
	fmt.Println("LSD-enabled microcode is loaded; the patch level is not a secret.")
}
