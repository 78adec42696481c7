// Command ucodescan demonstrates microcode patch fingerprinting
// (Section X): an unprivileged timing measurement reveals whether the
// machine runs the old (LSD-enabled) or new (LSD-disabled) microcode,
// and hence which CVEs remain unpatched.
package main

import (
	"flag"
	"fmt"

	"repro/internal/cmdutil"
	"repro/internal/ucode"
)

func main() {
	model := flag.String("model", "Gold 6226", "CPU model (Table I name)")
	seed := flag.Uint64("seed", 1, "measurement seed (0 means the default)")
	flag.Parse()

	m := cmdutil.MustModel(*model)
	if *seed == 0 {
		*seed = 1
	}
	for _, actual := range []ucode.Patch{ucode.Patch1, ucode.Patch2} {
		detected := ucode.DetectByTiming(m, actual, *seed)
		fmt.Printf("machine running %v\n", actual)
		fmt.Printf("  attacker detects: %v\n", detected)
		if detected == ucode.Patch1 {
			fmt.Println("  => VT-d escalation CVE-2021-24489 likely UNPATCHED on this host")
		} else {
			fmt.Println("  => newer microcode present; CVE-2021-24489 patched")
		}
	}
}
