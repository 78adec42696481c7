package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// workers is the load's concurrency: goroutines, sweep workers, daemon
// workers and client connections. It is fixed rather than taken from the
// machine so that every host runs the same load; 2 is the core count of
// the hosts the baseline was measured on.
const workers = 2

// repResult is what one child process reports about its repetition.
type repResult struct {
	// CPUS is the CPU time the workload's fixed work took in the process
	// doing it: this child, or leakyfed for the daemon.
	CPUS float64 `json:"cpu_s"`
	// WallS is the wall time the workload's fixed work took.
	WallS     float64 `json:"wall_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// RSSKB is the peak resident set of the process doing the work.
	RSSKB int64 `json:"rss_kb"`
	// Digests are sha256 sums of every output, by output name.
	Digests map[string]string `json:"digests"`
	// Layer holds per-layer metrics by name.
	Layer map[string]float64 `json:"layer"`
	// Problems lists every failed output check.
	Problems []string `json:"problems,omitempty"`
	// SetupS is filled in by the parent from the child's ready line: the
	// CPU time of the child's set-up, from process start.
	SetupS float64 `json:"setup_s"`
}

// workload is one benchmark input set. run sets the workload up, calls
// c.ready — which returns false in a set-up-only probe — and then does
// the timed work, recording into c.res.
type workload struct {
	name string
	run  func(c *child) error
}

var workloads = []workload{
	{"paper-artifacts", runArtifacts},
	{"sweep-space", runSweep},
	{"daemon-zipf", runDaemon},
	{"fuzz-campaign", runFuzz},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// child is the state of one child repetition.
type child struct {
	cfg    config
	stdout io.Writer
	tr     *obs.Trace // nil unless the repetition is traced
	res    repResult
}

func runChild(cfg config, stdout io.Writer) error {
	c := &child{cfg: cfg, stdout: stdout,
		res: repResult{Digests: map[string]string{}, Layer: map[string]float64{}}}
	var err error
	switch cfg.child {
	case "ledger":
		if c.ready(selfCPU()) {
			err = runLedger(c)
		}
	case "traced":
		c.tr = obs.NewTrace("", "leakybench "+cfg.workload)
		fallthrough
	default:
		w, _ := workloadByName(cfg.workload)
		err = w.run(c)
	}
	if err != nil || cfg.child == "probe" {
		return err
	}
	if c.res.RSSKB == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return err
		}
		c.res.RSSKB = ru.Maxrss
	}
	if c.tr != nil {
		c.tr.Finish()
		if err := c.writeTrace(); err != nil {
			return err
		}
	}
	return json.NewEncoder(c.stdout).Encode(c.res)
}

// ready marks the end of set-up and reports setupCPU, the set-up's CPU
// time in seconds, to the parent. It reports whether the timed work
// should follow; a set-up probe stops here.
func (c *child) ready(setupCPU float64) bool {
	fmt.Fprintf(c.stdout, "ready %s\n", strconv.FormatFloat(setupCPU, 'g', -1, 64))
	return c.cfg.child != "probe"
}

// measure runs the repetition's timed work and records its wall time
// and the CPU time this process spent on it.
func (c *child) measure(work func()) {
	start, cpu := time.Now(), selfCPU()
	work()
	c.res.WallS = time.Since(start).Seconds()
	c.res.CPUS = selfCPU() - cpu
}

// span opens a span under parent (nil: the root) on a traced
// repetition; on an untraced one it returns nil, whose methods are
// no-ops.
func (c *child) span(parent *obs.Span, name string, attrs ...obs.Attr) *obs.Span {
	return c.tr.StartSpan(parent, name, attrs...)
}

func (c *child) problem(format string, args ...any) {
	c.res.Problems = append(c.res.Problems, fmt.Sprintf(format, args...))
}

func (c *child) digest(name string, b []byte) {
	sum := sha256.Sum256(b)
	c.res.Digests[name] = hex.EncodeToString(sum[:])
}

// writeTrace exports the repetition's spans as a Chrome trace to
// <out>/<workload>.trace.json and checks the file loads.
func (c *child) writeTrace() error {
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, c.tr); err != nil {
		return err
	}
	for _, p := range obs.ValidateChromeTrace(buf.Bytes()) {
		c.problem("chrome trace: %s", p)
	}
	return os.WriteFile(filepath.Join(c.cfg.out, c.cfg.workload+".trace.json"), buf.Bytes(), 0o644)
}

// shares converts the traced repetition's self times, keyed by
// key(span), into shares of their total over the keys in names, and
// records each under its metric name (a key mapped to "" counts toward
// the total only).
func (c *child) shares(key func(obs.SpanData) string, names map[string]string) {
	self := selfTimes(c.tr.Spans(), key)
	var total int64
	for k := range names {
		total += self[k]
	}
	for k, metric := range names {
		if metric != "" && total > 0 {
			c.res.Layer[metric] = float64(self[k]) / float64(total)
		}
	}
}

// parallel calls fn(0..n-1) on the load's worker goroutines and returns
// once every call has.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
