// Command fesim drives the frontend simulator directly: it lays out a
// chain of instruction mix blocks with chosen count, DSB set, alignment,
// and LSD state, runs it, and reports which paths delivered the micro-ops
// and at what cost. It is the exploration tool behind the paper's
// Section IV reverse engineering — use it to see for yourself where the
// LSD stops locking or the DSB starts thrashing.
//
// Examples:
//
//	fesim -blocks 8                 # fits LSD and one DSB set
//	fesim -blocks 9                 # 9th way: DSB evictions, MITE fallback
//	fesim -blocks 8 -misaligned 3   # misalignment collapses the LSD
//	fesim -blocks 8 -lsd=false      # the DSB path alone
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cmdutil"
	"repro/internal/cpu"
	"repro/internal/isa"
)

// config is one fesim run: the chain layout, the model and the seed.
type config struct {
	model      string
	set        int
	blocks     int
	misaligned int
	iters      int
	lsd        bool
	seed       uint64
}

func main() {
	var c config
	flag.StringVar(&c.model, "model", "Gold 6226", "CPU model (Table I name)")
	flag.IntVar(&c.set, "set", 3, "target DSB set (0-31)")
	flag.IntVar(&c.blocks, "blocks", 8, "aligned instruction mix blocks in the chain")
	flag.IntVar(&c.misaligned, "misaligned", 0, "misaligned blocks appended to the chain")
	flag.IntVar(&c.iters, "iters", 200, "loop iterations")
	flag.BoolVar(&c.lsd, "lsd", true, "LSD enabled (microcode patch1)")
	flag.Uint64Var(&c.seed, "seed", 1, "deterministic seed")
	flag.Parse()
	run(os.Stdout, c)
}

// run simulates the chain c describes on thread 0 and writes the
// delivery report to w.
func run(w io.Writer, c config) {
	m := cmdutil.MustModel(c.model).WithLSD(c.lsd)
	core := cpu.NewCore(m, c.seed)

	chain := isa.MixChainMixed(c.set, c.blocks, c.misaligned)
	total := c.blocks + c.misaligned
	fmt.Fprintf(w, "chain: %d aligned + %d misaligned mix blocks -> DSB set %d (%d uops/iteration)\n",
		c.blocks, c.misaligned, c.set, total*5)
	fmt.Fprintf(w, "model: %s, LSD %v\n\n", m.Name, c.lsd)

	start := core.Cycle()
	core.Enqueue(0, isa.NewLoopStream(chain, c.iters), nil)
	core.RunUntilIdle(500_000_000)
	cycles := core.Cycle() - start

	ctr := core.Counters(0)
	uops := float64(ctr.UOps())
	lsd := core.FE.LSDFor(0)
	fmt.Fprintf(w, "cycles            %d  (%.2f cycles/block)\n", cycles, float64(cycles)/float64(total*c.iters))
	fmt.Fprintf(w, "IPC               %.2f\n", uops/float64(cycles))
	fmt.Fprintf(w, "uops via LSD      %8d  (%5.1f%%)\n", ctr.UOpsLSD, 100*float64(ctr.UOpsLSD)/uops)
	fmt.Fprintf(w, "uops via DSB      %8d  (%5.1f%%)\n", ctr.UOpsDSB, 100*float64(ctr.UOpsDSB)/uops)
	fmt.Fprintf(w, "uops via MITE     %8d  (%5.1f%%)\n", ctr.UOpsMITE, 100*float64(ctr.UOpsMITE)/uops)
	fmt.Fprintf(w, "LSD locks/flushes %d/%d\n", lsd.Locks(), lsd.Flushes())
	fmt.Fprintf(w, "switch penalties  %.0f cycles over %d switches\n", ctr.SwitchCycles, ctr.SwitchCount)
	fmt.Fprintf(w, "L1I misses        %d\n", ctr.L1IMisses)
	fmt.Fprintf(w, "DSB hits/misses   %d/%d (evictions %d)\n",
		core.FE.DSB.Stats().Hits, core.FE.DSB.Stats().Misses, core.FE.DSB.Stats().Evictions)
	fmt.Fprintf(w, "alignment tracker %d stale entries\n", core.FE.Align().Level())
}
