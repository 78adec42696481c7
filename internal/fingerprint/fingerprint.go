// Package fingerprint implements the paper's frontend side channel for
// application fingerprinting (Section XI): an attacker thread loops over
// 100 nop instructions — too many micro-ops for the LSD, resident in the
// DSB, two-ish cache lines of code — and samples its own IPC at a low 10
// Hz rate. A victim on the sibling hardware thread modulates the shared
// frontend (especially MITE, which is not partitioned), and the
// attacker's IPC waveform identifies which workload is running.
//
// Traces are compared by Euclidean distance; a workload is recognized
// when its intra-workload distance is far below the inter-workload
// distances (Figures 11 and 12).
//
// A trace is a schedule plus a simulation. The schedule holds every
// random draw of the run, made before anything is simulated: the
// scheduling jitter of each phase boundary and the timer noise of each
// sample. The simulation requeues the victim at each phase start,
// runs one sample period and reads the attacker's IPC; it draws no
// randomness, so a trace is the simulated IPC plus the schedule's
// noise. Two runs of one workload therefore simulate identical samples
// until the first sample where their schedules start a phase
// differently. Study simulates those shared samples once, then clones
// the core at that sample and finishes each run on its own core.
package fingerprint

import (
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/runctx"
	"repro/internal/stats"
	"repro/internal/victim"
)

// Config parameterizes a fingerprinting run.
type Config struct {
	Model cpu.Model
	// SamplePeriod is the low-resolution timer period in cycles. The
	// paper samples at 10 Hz wall time; simulated time is compressed so
	// a sample covers a representative execution window.
	SamplePeriod uint64
	// Samples is the trace length (100 in Figure 11).
	Samples int
	Seed    uint64
}

// DefaultConfig returns the evaluation setting.
func DefaultConfig(m cpu.Model) Config {
	return Config{Model: m, SamplePeriod: 30_000, Samples: 100, Seed: 1}
}

// attackerLoop builds the 100-nop receiver loop (2-byte nops: 101
// micro-ops — above the 64-entry LSD, inside the DSB).
func attackerLoop() []*isa.Block {
	blocks := []*isa.Block{isa.NopBlockLen(0x0070_0000, 100, 2)}
	isa.ChainLoop(blocks)
	return blocks
}

// Trace runs the attacker alongside the victim workload and returns the
// attacker's IPC samples.
func Trace(cfg Config, w victim.Workload) []float64 {
	tr, _ := TraceCtx(runctx.Background(), cfg, w)
	return tr
}

// TraceCtx is Trace with cooperative cancellation and progress: it
// checkpoints once per IPC sample and returns the context's error (and
// a nil trace) if the run is cancelled mid-trace. An uncancelled
// TraceCtx is byte-identical to Trace.
func TraceCtx(rc runctx.Ctx, cfg Config, w victim.Workload) ([]float64, error) {
	rc, span := rc.StartSpan("fingerprint.trace",
		obs.String("workload", w.Name),
		obs.String("model", cfg.Model.Name),
		obs.Int("samples", cfg.Samples))
	defer span.End()
	sc := newSchedule(cfg, &w)
	ipc := make([]float64, cfg.Samples)
	if err := newSim(cfg, &w).run(rc, sc.phase, ipc, 0, len(ipc)); err != nil {
		return nil, err
	}
	return sc.trace(ipc), nil
}

// schedule is one run's random draws, in the order the trace makes
// them: at each phase start the boundary jitter (Bool, then Intn), then
// one timer-noise value per sample.
type schedule struct {
	phase []int     // the phase started at each sample, or -1 within a phase
	noise []float64 // the timer noise of each sample
}

func newSchedule(cfg Config, w *victim.Workload) schedule {
	r := rng.New(cfg.Seed).Fork(3)
	sc := schedule{phase: make([]int, cfg.Samples), noise: make([]float64, cfg.Samples)}
	phase := 0
	left := 0 // samples left in the current phase
	for i := range sc.phase {
		sc.phase[i] = -1
		if left <= 0 {
			left = w.Phases[phase%len(w.Phases)].Samples
			// Scheduling jitter: phase boundaries drift by up to one
			// sample between runs of the same victim.
			if left > 1 && r.Bool(0.1) {
				left += r.Intn(3) - 1
			}
			sc.phase[i] = phase
			phase++
		}
		// Low-resolution timer quantization and OS noise.
		sc.noise[i] = r.NormScaled(0, 0.015)
		left--
	}
	return sc
}

// trace adds the timer noise to the simulated IPC samples, in place.
func (sc schedule) trace(ipc []float64) []float64 {
	for i := range ipc {
		ipc[i] += sc.noise[i]
	}
	return ipc
}

// parted returns the first sample at which two schedules start a phase
// differently, or their length if they never do.
func parted(a, b schedule) int {
	for i := range a.phase {
		if a.phase[i] != b.phase[i] {
			return i
		}
	}
	return len(a.phase)
}

// sim is the simulation side of a trace: a core running the attacker's
// loop on thread 0, with the victim's phases queued on thread 1.
type sim struct {
	core *cpu.Core
	w    *victim.Workload
	// flat holds each phase's blocks flattened, once a phase first
	// starts; a sim's copy shares it.
	flat   [][]isa.Inst
	period uint64
	cycles int    // the trace's length in cycles, plus two samples
	stage  string // progress stage
}

func newSim(cfg Config, w *victim.Workload) *sim {
	if !cfg.Model.HyperThreading {
		panic("fingerprint: side channel needs a co-resident SMT victim")
	}
	s := &sim{
		core:   cpu.NewCore(cfg.Model, cfg.Seed),
		w:      w,
		flat:   make([][]isa.Inst, len(w.Phases)),
		period: cfg.SamplePeriod,
		cycles: int(cfg.SamplePeriod) * (cfg.Samples + 2),
		stage:  "trace " + w.Name,
	}
	// The attacker's loop: queue enough iterations to outlast the trace.
	s.core.Enqueue(0, isa.NewLoopStream(attackerLoop(), s.cycles/20+1000), nil)
	return s
}

// run simulates the samples i with from <= i < to, requeueing the
// victim at each sample where phase names a phase start, and stores the
// attacker's IPC of each sample in ipc[i]. It draws no randomness.
func (s *sim) run(rc runctx.Ctx, phase []int, ipc []float64, from, to int) error {
	for i := from; i < to; i++ {
		if err := rc.Step(s.stage, i, len(ipc)); err != nil {
			return err
		}
		if p := phase[i]; p >= 0 {
			// Like the attacker's, the victim's loop outlasts the trace:
			// a mix block ends in a taken jump, so a thread delivers at
			// most one block per cycle. A phase ends only by this
			// requeue, never by its loop running out, so two runs
			// whose phase lengths drift apart queue the same stream.
			s.core.AbortThread(1)
			s.core.Enqueue(1, s.phase(p%len(s.w.Phases)), nil)
		}
		snap := s.core.Snapshot(0)
		s.core.RunCycles(s.period)
		ipc[i] = s.core.IPCSince(0, snap)
	}
	return nil
}

// phase returns the victim's loop over phase i's blocks, flattened the
// first time the phase starts, with an iteration count that outlasts
// the trace.
func (s *sim) phase(i int) isa.SeqStream {
	blocks := s.w.PhaseBlocks(i)
	if s.flat[i] == nil {
		s.flat[i] = isa.Flatten(blocks)
	}
	return isa.NewFlatLoopStream(s.flat[i], s.cycles/len(blocks)+1000)
}

// BaselineIPC returns the attacker's solo IPC (no victim), the 3.58
// reference of Figure 11.
func BaselineIPC(cfg Config) float64 {
	core := cpu.NewCore(cfg.Model, cfg.Seed)
	loop := attackerLoop()
	core.Enqueue(0, isa.NewLoopStream(loop, 20_000), nil)
	core.RunCycles(20_000) // warmup
	snap := core.Snapshot(0)
	core.RunCycles(cfg.SamplePeriod * 4)
	return core.IPCSince(0, snap)
}

// Distances summarizes a fingerprinting study over a workload suite.
type Distances struct {
	Names  []string
	Matrix *stats.DistanceMatrix
	Intra  float64 // mean distance between two runs of the same workload
	Inter  float64 // mean distance between different workloads
}

// Study traces every workload twice (different seeds) and computes the
// intra/inter distance statistics of Figure 12 and Section XI-B.
func Study(cfg Config, suite []victim.Workload) Distances {
	d, _ := StudyCtx(runctx.Background(), cfg, suite)
	return d
}

// StudyCtx is Study with cooperative cancellation and progress; each
// run checkpoints once per simulated sample, and a sample both runs of
// a workload share checkpoints once.
func StudyCtx(rc runctx.Ctx, cfg Config, suite []victim.Workload) (Distances, error) {
	rc, span := rc.StartSpan("fingerprint.study", obs.Int("workloads", len(suite)))
	defer span.End()
	names := make([]string, len(suite))
	run1 := make([][]float64, len(suite))
	run2 := make([][]float64, len(suite))
	for i := range suite {
		w := suite[i]
		names[i] = w.Name
		c1, c2 := cfg, cfg
		c1.Seed = cfg.Seed*1000 + uint64(i)
		c2.Seed = cfg.Seed*1000 + uint64(i) + 500
		var err error
		if run1[i], run2[i], err = tracePair(rc, c1, c2, &w); err != nil {
			return Distances{}, err
		}
	}
	return distances(names, run1, run2), nil
}

// distances computes a study's statistics from each workload's two
// runs.
func distances(names []string, run1, run2 [][]float64) Distances {
	var intra, inter float64
	var nIntra, nInter int
	for i := range names {
		intra += stats.Euclidean(run1[i], run2[i])
		nIntra++
		for j := range names {
			if i != j {
				inter += stats.Euclidean(run1[i], run2[j])
				nInter++
			}
		}
	}
	return Distances{
		Names:  names,
		Matrix: stats.NewDistanceMatrix(names, run1),
		Intra:  intra / float64(nIntra),
		Inter:  inter / float64(nInter),
	}
}

// tracePair traces w under two configs that differ only in their seed.
// The samples before the first one at which the two schedules start a
// phase differently are simulated once, for both runs. At that sample
// the core is cloned and each run finishes on its own core; if the
// schedules never part, nothing is cloned. The clone carries run 1's
// core seed, which no trace reads: a trace queues no measurement task,
// so the core never draws from its RNG or its TSC.
func tracePair(rc runctx.Ctx, c1, c2 Config, w *victim.Workload) ([]float64, []float64, error) {
	sc1, sc2 := newSchedule(c1, w), newSchedule(c2, w)
	fork := parted(sc1, sc2)
	rc, span := rc.StartSpan("fingerprint.trace",
		obs.String("workload", w.Name),
		obs.String("model", c1.Model.Name),
		obs.Int("samples", c1.Samples),
		obs.Int("runs", 2),
		obs.Int("shared", fork))
	defer span.End()
	n := c1.Samples
	ipc1, ipc2 := make([]float64, n), make([]float64, n)
	s1 := newSim(c1, w)
	if err := s1.run(rc, sc1.phase, ipc1, 0, fork); err != nil {
		return nil, nil, err
	}
	copy(ipc2, ipc1[:fork])
	if fork < n {
		s2 := *s1
		s2.core = s1.core.Clone()
		if err := s1.run(rc, sc1.phase, ipc1, fork, n); err != nil {
			return nil, nil, err
		}
		if err := s2.run(rc, sc2.phase, ipc2, fork, n); err != nil {
			return nil, nil, err
		}
	}
	return sc1.trace(ipc1), sc2.trace(ipc2), nil
}

// Classify matches an observed trace against reference traces and
// returns the best-matching workload index.
func Classify(observed []float64, refs [][]float64) int {
	best, bestD := 0, -1.0
	for i, r := range refs {
		d := stats.Euclidean(observed, r)
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
