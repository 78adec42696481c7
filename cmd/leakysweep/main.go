// Command leakysweep executes a whole shard of the covert-channel
// scenario space in one invocation: a filter query selects scenarios
// from the enumerated space, a bounded worker pool transmits them, and
// the aggregated report — per-spec rows plus per-variant min/mean/max
// matrices — prints as text or JSON. Per-spec seeds are split
// deterministically from -seed, so the report bytes are identical for
// every -workers value.
//
// Usage:
//
//	leakysweep                                    # the whole valid space
//	leakysweep -filter 'mech=eviction,thread=mt'  # one slice of it
//	leakysweep -filter 'model=xeon*,sgx=true' -bits 64 -workers 8
//	leakysweep -maxp 2000 -calib 6                # reduced-scale full space
//	leakysweep -list                              # print the shard, run nothing
//	leakysweep -json -progress                    # report JSON, progress on stderr
//	leakysweep -advisory "Gold 6226" -maxp 2000   # render the model's security advisory
//	leakysweep -trace sweep.json                  # also write a Chrome trace_event profile
//	leakysweep -store /var/lib/leakyfed           # share the daemon's on-disk result store
//
// -store layers the persistent result store leakyfed uses for
// -cache-dir under the sweep: specs already on disk are served without
// simulating, and every simulated spec is written through — so CLI
// sweeps warm (and are warmed by) the same store the daemon serves
// from. The report bytes are identical with or without -store.
//
// The filter grammar is comma-separated key=value clauses: globs for
// model/mech/thread/sink (case-insensitive), true|false for
// sgx/stealthy/contended, and single values or inclusive lo..hi ranges
// for d/m/p. An empty filter sweeps everything.
//
// Ctrl-C stops the sweep gracefully: in-flight transmissions unwind at
// their next checkpoint, the partial report (completed rows intact,
// the rest marked) still prints, and the exit status is 1. Exactly one
// report prints no matter when the signal lands: the handler stays
// registered through the render, so a late or repeated SIGINT cannot
// kill the process mid-report, and an interrupt that arrives after the
// last spec completed still exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() {
	var (
		filter   = flag.String("filter", "", "sweep query (empty = the whole valid space)")
		workers  = flag.Int("workers", runtime.NumCPU(), "specs transmitting concurrently (never changes the report bytes)")
		bits     = flag.Int("bits", 0, "message bits per spec (0 = the default 200)")
		seed     = flag.Uint64("seed", 1, "base seed; per-spec seeds are split from it")
		calib    = flag.Int("calib", 0, "calibration-preamble override (0 = per-spec default)")
		maxp     = flag.Int("maxp", 0, "clamp every spec's p parameter (0 = spec defaults); e.g. 2000 makes a full-space sweep finish in seconds")
		jsonOut  = flag.Bool("json", false, "print the report as JSON instead of text")
		progress = flag.Bool("progress", false, "print per-spec completions on stderr as they land")
		list     = flag.Bool("list", false, "print the expanded shard and exit without running")
		advisory = flag.String("advisory", "", "sweep the named model across every defense and render its security advisory (overrides -filter)")
		traceOut = flag.String("trace", "", "write a Chrome trace_event profile of the sweep to this file (load in about:tracing or ui.perfetto.dev)")
		storeDir = flag.String("store", "", "read and warm the persistent result store at this directory (the same layout leakyfed -cache-dir uses)")
	)
	flag.Parse()

	f, err := sweep.ParseFilter(*filter)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var advModel cpu.Model
	if *advisory != "" {
		m, ok := cpu.ModelByName(*advisory)
		if !ok {
			fmt.Fprintf(os.Stderr, "leakysweep: unknown model %q (Table I names)\n", *advisory)
			os.Exit(2)
		}
		advModel, f = m, sweep.AdvisoryFilter(m.Name)
	}
	o := sweep.Options{Bits: *bits, Seed: *seed, CalibBits: *calib, MaxP: *maxp, Workers: *workers}
	if *list {
		specs, err := sweep.Expand(f, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("%d specs in shard %q:\n", len(specs), f.String())
		for _, cs := range specs {
			fmt.Println(" ", cs)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The trace records per-spec and per-stage wall-clock spans; it never
	// changes the report bytes (tracing is timing-only by design).
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace("", "leakysweep")
		ctx = tr.Context(ctx)
	}
	var emit func(sweep.Row)
	done := 0
	if *progress {
		emit = func(row sweep.Row) {
			done++
			status := fmt.Sprintf("rate=%.2f Kbps err=%.2f%%", row.RateKbps, 100*row.ErrorRate)
			if row.Err != "" {
				status = row.Err
			}
			fmt.Fprintf(os.Stderr, "[%d] %s  %s\n", done, row.Canonical, status)
		}
	}
	var run sweep.RunFunc
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		run = store.SweepRunFunc(st)
	}
	report, err := sweep.Run(ctx, f, o, run, emit)
	// Latch the interrupt before rendering anything: a SIGINT that lands
	// after the last spec finishes (or during the render itself) must
	// still turn into exit status 1, and the NotifyContext registration
	// stays in place until exit so a second SIGINT cannot kill the
	// process halfway through the single report below.
	interrupted := ctx.Err() != nil
	if tr != nil {
		tr.Finish()
		if werr := writeTrace(*traceOut, tr); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *advisory != "" {
		if report.Completed < report.Specs {
			fmt.Fprintf(os.Stderr, "leakysweep: cancelled with %d of %d specs incomplete; no advisory\n",
				report.Specs-report.Completed, report.Specs)
			os.Exit(1)
		}
		adv, err := sweep.NewAdvisory(report, advModel)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *jsonOut {
			blob, err := json.MarshalIndent(adv, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			fmt.Printf("%s\n", blob)
		} else {
			fmt.Print(adv.Render())
		}
		if interrupted {
			exitInterrupted()
		}
		return
	}
	if *jsonOut {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("%s\n", blob)
	} else {
		fmt.Print(report.Render())
	}
	if report.Completed < report.Specs {
		fmt.Fprintf(os.Stderr, "leakysweep: cancelled with %d of %d specs incomplete\n",
			report.Specs-report.Completed, report.Specs)
		os.Exit(1)
	}
	if interrupted {
		exitInterrupted()
	}
}

// exitInterrupted reports an interrupt that arrived too late to cancel
// any work — after the last spec completed, possibly mid-render. The
// report already printed is complete, but the run was still interrupted
// and scripts must see a failure status.
func exitInterrupted() {
	fmt.Fprintln(os.Stderr, "leakysweep: interrupted (report is complete)")
	os.Exit(1)
}

// writeTrace exports the finished trace as Chrome trace_event JSON.
func writeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("leakysweep: %v", err)
	}
	if err := obs.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return fmt.Errorf("leakysweep: writing trace: %v", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("leakysweep: writing trace: %v", err)
	}
	return nil
}
