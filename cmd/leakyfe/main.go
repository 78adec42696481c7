// Command leakyfe regenerates the paper's evaluation: every table and
// figure of "Leaky Frontends" (HPCA 2022) on the simulated frontend,
// driven through the experiment registry.
//
// Usage:
//
//	leakyfe -list
//	leakyfe -run all -parallel 4 -timing
//	leakyfe -run 'table*' -json
//	leakyfe -run tableIII,figure8 -bits 400
//	leakyfe -run all -progress -timeout 90s
//	leakyfe -run all -trace run.json     # Chrome trace_event profile of the run
//
// The -run flag takes a comma-separated list of experiment names as
// printed by -list, matched case-insensitively ("TABLEiii" works), or
// shell-style globs ("figure*"). Unknown names are rejected before any
// experiment runs. Artifacts execute on -parallel worker goroutines with
// per-artifact seeds split from -seed, so the rendered artifact text is
// byte-identical for every -parallel value; tables print incrementally
// as their catalog-order prefix completes. (JSON output additionally
// embeds per-artifact wall-clock timings, which vary run to run.)
//
// Runs are cancellable: Ctrl-C (or an elapsed -timeout) unwinds every
// in-flight artifact at its next cooperative checkpoint and skips the
// rest. Artifacts that completed before the interrupt print exactly the
// bytes an uninterrupted run would have printed; the cancelled ones are
// listed on stderr and the exit status is non-zero. -progress reports
// live per-artifact progress on stderr without perturbing stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runctx"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		run      = flag.String("run", "all", "comma-separated experiment names or globs (case-insensitive), or 'all'")
		bits     = flag.Int("bits", 200, "covert-channel message length")
		seed     = flag.Uint64("seed", 1, "top-level deterministic seed")
		samples  = flag.Int("samples", 100, "fingerprint trace length (figures 11/12)")
		parallel = flag.Int("parallel", runtime.NumCPU(), "max experiments in flight (artifact text is identical for any value)")
		jsonOut  = flag.Bool("json", false, "emit structured JSON results instead of rendered tables")
		timing   = flag.Bool("timing", false, "append per-artifact wall-clock timings (text mode)")
		timeout  = flag.Duration("timeout", 0, "per-invocation deadline; exceeded runs are cancelled cooperatively (0 = none)")
		progress = flag.Bool("progress", false, "report live experiment progress on stderr")
		traceOut = flag.String("trace", "", "write a Chrome trace_event profile of the run to this file (load in about:tracing or ui.perfetto.dev)")
	)
	flag.Parse()

	if *list {
		for _, a := range experiments.Default().Artifacts() {
			fmt.Printf("%-10s %-10s %s\n", a.Name, a.Ref, a.Desc)
		}
		return
	}

	o := experiments.Opts{Bits: *bits, Seed: *seed, Samples: *samples}
	arts, err := experiments.Default().Select(strings.Split(*run, ",")...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Ctrl-C / SIGTERM cancels the run cooperatively; completed tables
	// have already been streamed, cancelled ones are reported below. A
	// second interrupt kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Once the run is cancelled, restore default signal handling so the
	// second Ctrl-C actually kills the process instead of being
	// swallowed while a long un-checkpointed section finishes.
	context.AfterFunc(ctx, stop)
	// Per-artifact and per-stage spans record wall-clock only; the trace
	// never changes the rendered artifact bytes. flushTrace runs before
	// every exit path (exitCancelled bypasses defers via os.Exit).
	flushTrace := func() {}
	if *traceOut != "" {
		tr := obs.NewTrace("", "leakyfe")
		ctx = tr.Context(ctx)
		flushTrace = func() {
			tr.Finish()
			if err := writeTrace(*traceOut, tr); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	rc := runctx.New(ctx, progressSink(*progress))

	rn := experiments.Runner{Opts: o, Workers: *parallel}
	if *jsonOut {
		results := rn.RunEmitCtx(rc, arts, nil)
		flushTrace()
		b, err := experiments.RenderJSON(results)
		if err != nil {
			fmt.Fprintf(os.Stderr, "leakyfe: encoding results: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(b, '\n'))
		exitCancelled(results)
		return
	}
	// Stream each table as soon as its catalog-order prefix completes;
	// the concatenation is byte-identical to a buffered RenderText over
	// the completed artifacts.
	results := rn.RunEmitCtx(rc, arts, func(r experiments.Result) {
		fmt.Print(experiments.RenderText([]experiments.Result{r}, false))
	})
	flushTrace()
	if *timing {
		fmt.Print(experiments.RenderTimings(results))
	}
	exitCancelled(results)
}

// writeTrace exports the finished trace as Chrome trace_event JSON.
func writeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("leakyfe: %v", err)
	}
	if err := obs.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return fmt.Errorf("leakyfe: writing trace: %v", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("leakyfe: writing trace: %v", err)
	}
	return nil
}

// progressSink returns the stderr progress reporter, throttled so tight
// per-bit checkpoints do not flood the terminal; nil when disabled.
func progressSink(enabled bool) runctx.Sink {
	if !enabled {
		return nil
	}
	var mu sync.Mutex
	var last time.Time
	return func(ev runctx.Event) {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(last) < 200*time.Millisecond {
			return
		}
		last = time.Now()
		if ev.Total > 0 {
			fmt.Fprintf(os.Stderr, "leakyfe: %s: %s (%d/%d)\n", ev.Artifact, ev.Stage, ev.Done, ev.Total)
			return
		}
		fmt.Fprintf(os.Stderr, "leakyfe: %s: %s (%d)\n", ev.Artifact, ev.Stage, ev.Done)
	}
}

// exitCancelled reports artifacts the run did not complete and exits
// non-zero if there were any.
func exitCancelled(results []experiments.Result) {
	var cancelled []string
	for _, r := range results {
		if r.Err != "" {
			cancelled = append(cancelled, r.Name)
		}
	}
	if len(cancelled) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "leakyfe: run cancelled before completing: %s\n", strings.Join(cancelled, ", "))
	os.Exit(1)
}
