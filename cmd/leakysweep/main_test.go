package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

// TestTraceOutputIsValidChromeTrace exercises the -trace path end to
// end: a real (small) sweep runs under a trace, writeTrace exports it,
// and the file on disk validates against the Chrome trace_event schema
// subset about:tracing and Perfetto require. It also pins the tracing
// discipline at the CLI level: the traced report is byte-identical to
// an untraced one.
func TestTraceOutputIsValidChromeTrace(t *testing.T) {
	f, err := sweep.ParseFilter("mech=eviction,thread=nonmt,sink=timing,sgx=false,model=Xeon E-2174G")
	if err != nil {
		t.Fatal(err)
	}
	o := sweep.Options{Bits: 8, Seed: 1, MaxP: 2000, Workers: 2}

	plain, err := sweep.Run(context.Background(), f, o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace("", "leakysweep")
	report, err := sweep.Run(tr.Context(context.Background()), f, o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if got, want := report.Render(), plain.Render(); got != want {
		t.Errorf("traced report differs from untraced:\n%s\nvs\n%s", got, want)
	}

	path := filepath.Join(t.TempDir(), "out.json")
	if err := writeTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if problems := obs.ValidateChromeTrace(blob); len(problems) > 0 {
		t.Errorf("-trace output is not a valid Chrome trace: %v", problems)
	}
	// The profile must contain the simulation's own stages, not just a
	// root event. Calibration appears as the memo's cache-decision span
	// ("sweep.calibration", hit or miss); the nested "channel.calibrate"
	// stage only fires on misses, and the untraced sweep above has
	// already warmed the process-wide cache for these specs.
	for _, want := range []string{"sweep.spec", "channel.transmit", "sweep.calibration"} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("-trace output missing %q span", want)
		}
	}
}

// TestSIGINTPrintsOneReportAndExitsNonzero drives a real leakysweep
// process: it interrupts a running sweep (twice, back to back — the
// second signal lands while the first is being handled, exactly the
// render-time window the handler must survive) and requires the
// contract the package doc promises: exactly one report on stdout, a
// cancellation notice on stderr, and exit status 1. Before the fix, a
// SIGINT landing after the last spec completed exited 0, and a repeated
// SIGINT could kill the process mid-render.
func TestSIGINTPrintsOneReportAndExitsNonzero(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal semantics required")
	}
	bin := filepath.Join(t.TempDir(), "leakysweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building leakysweep: %v\n%s", err, out)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// -progress reports each completed spec on stderr; the first line is
	// the deterministic "sweep is mid-flight" cue to interrupt on.
	cmd := exec.CommandContext(ctx, bin, "-progress", "-maxp", "2000", "-workers", "2")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(stderrPipe)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("no progress line before EOF: %v", err)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(br)
	err = cmd.Wait()

	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want exit status 1\nstderr tail:\n%s", err, rest)
	}
	if got := strings.Count(stdout.String(), "sweep: filter="); got != 1 {
		t.Fatalf("%d reports printed, want exactly 1:\n%s", got, stdout.String())
	}
	stderrTail := string(rest)
	if !strings.Contains(stderrTail, "cancelled with") && !strings.Contains(stderrTail, "interrupted") {
		t.Errorf("stderr does not explain the failure status:\n%s", stderrTail)
	}
}

// TestStoreShareableAcrossRuns exercises -store at the API level the
// flag wires up: a first sweep populates the on-disk store, a second
// process (fresh store handle, same dir) sweeps the same shard entirely
// from disk — zero store misses, byte-identical report — and the store
// layout is the one leakyfed -cache-dir serves from.
func TestStoreShareableAcrossRuns(t *testing.T) {
	f, err := sweep.ParseFilter("mech=eviction,thread=nonmt,sink=timing,sgx=false,model=Xeon E-2174G")
	if err != nil {
		t.Fatal(err)
	}
	o := sweep.Options{Bits: 8, Seed: 1, MaxP: 2000, Workers: 2}
	dir := t.TempDir()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sweep.Run(context.Background(), f, o, store.SweepRunFunc(st1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Completed != first.Specs || first.Specs == 0 {
		t.Fatalf("first sweep completed %d of %d specs", first.Completed, first.Specs)
	}
	if n := st1.Len(); n != first.Specs {
		t.Fatalf("store holds %d entries, want %d (one per spec)", n, first.Specs)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sweep.Run(context.Background(), f, o, store.SweepRunFunc(st2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := second.Render(), first.Render(); got != want {
		t.Errorf("second run differs from first:\n%s\nvs\n%s", got, want)
	}
	stats := st2.Stats()
	if stats.Misses != 0 || stats.Hits != uint64(first.Specs) {
		t.Errorf("second run hit/missed the store %d/%d times, want %d/0", stats.Hits, stats.Misses, first.Specs)
	}

	// And without the store the report is byte-identical too: -store is
	// a pure optimization, never a semantic change.
	plain, err := sweep.Run(context.Background(), f, o, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plain.Render(), first.Render(); got != want {
		t.Errorf("store-backed report differs from plain sweep:\n%s\nvs\n%s", got, want)
	}
}
