// Package spectre implements the paper's in-domain Spectre v1 variant
// (Section IX): the victim's bounds check is trained, an out-of-bounds
// call transiently executes a disclosure gadget, and the transiently
// accessed secret is exfiltrated through a covert channel. Six channels
// are implemented — the paper's frontend (DSB-set) channel, its L1I
// Flush+Reload and L1I Prime+Probe comparison points, and the three
// data-cache baselines of Xiong & Szefer (MEM Flush+Reload, L1D
// Flush+Reload, L1D LRU) — so Table VII's L1 miss-rate comparison can be
// regenerated.
//
// Secrets are leaked in 5-bit chunks (values 0..31), one DSB set / cache
// line index per value, exactly as Section IX describes.
package spectre

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/runctx"
	"repro/internal/stats"
)

// Channel selects the covert channel used to exfiltrate the transient
// secret.
type Channel int

const (
	// Frontend encodes the secret in DSB set state (the paper's channel).
	Frontend Channel = iota
	// L1IFlushReload uses instruction-cache flush+reload.
	L1IFlushReload
	// L1IPrimeProbe uses instruction-cache prime+probe.
	L1IPrimeProbe
	// MemFlushReload uses a DRAM-resident probe array (baseline [30]).
	MemFlushReload
	// L1DFlushReload uses a compact L1D probe array (baseline [30]).
	L1DFlushReload
	// L1DLRU communicates through L1D LRU state without extra misses
	// (baseline [30]).
	L1DLRU
)

// String names the channel as Table VII does.
func (c Channel) String() string {
	switch c {
	case Frontend:
		return "Frontend"
	case L1IFlushReload:
		return "L1I F+R"
	case L1IPrimeProbe:
		return "L1I P+P"
	case MemFlushReload:
		return "MEM F+R"
	case L1DFlushReload:
		return "L1D F+R"
	case L1DLRU:
		return "L1D LRU"
	default:
		return fmt.Sprintf("channel(%d)", int(c))
	}
}

// IsInstructionSide reports whether the channel's footprint lives in the
// instruction side (L1I / frontend) rather than the data side.
func (c Channel) IsInstructionSide() bool {
	return c == Frontend || c == L1IFlushReload || c == L1IPrimeProbe
}

// Config parameterizes a Spectre run.
type Config struct {
	Model cpu.Model
	Chan  Channel
	// TrainRounds is how many in-bounds calls train the bounds check.
	TrainRounds int
	Seed        uint64
}

// DefaultConfig returns the evaluation configuration (Gold 6226,
// Section IX).
func DefaultConfig(ch Channel) Config {
	return Config{Model: cpu.Gold6226(), Chan: ch, TrainRounds: 8, Seed: 1}
}

// Result reports a leak run: the recovered secret, its accuracy, and the
// L1 miss rate of the relevant cache — Table VII's metric.
type Result struct {
	Channel    Channel
	Recovered  []byte
	Accuracy   float64
	L1MissRate float64 // L1I for instruction-side channels, L1D otherwise
	L1IMiss    float64
	L1DMiss    float64
}

// memory layout constants for the channels.
const (
	victimPC   = 0x0040_0000 // bounds-check branch address
	gadgetBase = 0x0040_1000 // transient gadget code
	l1iProbe   = 0x0048_0000 // L1I probe code region (line i at +i*64)
	memProbe   = 0x1000_0000 // DRAM probe array (page-strided)
	l1dProbe   = 0x2000_0000 // compact L1D probe array
	lruSet     = 0x3000_0000 // L1D LRU target set base
	chunkBits  = 32          // 5-bit chunks: 32 candidate values
)

// Lab drives the Spectre attack on one core.
type Lab struct {
	cfg  Config
	core *cpu.Core

	// Frontend channel state: one 8-way mix chain per DSB set.
	prime [chunkBits][]*isa.Block
	// harness is the attacker's own timing-harness code loop; its fetch
	// traffic is part of the denominator of the instruction-side miss
	// rates Table VII reports.
	harness []*isa.Block
	// benignLoads models the attack harness's own data traffic, which
	// dilutes the probe misses into the miss *rates* Table VII reports.
	benignLoads int
	// harnessIters is how many harness-loop passes run per leak round.
	harnessIters int
	// bufferFills models the Section XII defense of buffering
	// speculative DSB updates: transient execution leaves no frontend
	// state behind.
	bufferFills bool
}

// BufferTransientFills enables the Section XII Spectre defense: decoded
// windows from squashed (transient) execution are discarded instead of
// installed, so the frontend covert channel observes nothing.
func (l *Lab) BufferTransientFills(on bool) { l.bufferFills = on }

// NewLab builds a lab for the configured channel.
func NewLab(cfg Config) *Lab {
	l := &Lab{cfg: cfg, core: cpu.NewCore(cfg.Model, cfg.Seed)}
	for s := 0; s < chunkBits; s++ {
		l.prime[s] = isa.MixChain(s, 8, true)
	}
	// Harness code placed in the upper half of the L1I index space so it
	// does not collide with the L1I probe sets.
	hb := make([]*isa.Block, 24)
	for i := range hb {
		hb[i] = isa.MixBlock(0x0049_0800 + uint64(i)*40*32)
	}
	isa.ChainLoop(hb)
	l.harness = hb
	switch cfg.Chan {
	case MemFlushReload:
		l.benignLoads = 1400
	case L1DFlushReload:
		l.benignLoads = 820
	case L1DLRU:
		l.benignLoads = 560
	case L1IFlushReload:
		l.harnessIters = 260
	case L1IPrimeProbe:
		l.harnessIters = 260
	case Frontend:
		l.harnessIters = 150
	}
	return l
}

// Core exposes the simulated core (tests, experiments).
func (l *Lab) Core() *cpu.Core { return l.core }

// runBlocks executes a block chain once on thread 0.
func (l *Lab) runBlocks(blocks []*isa.Block) {
	l.core.Enqueue(0, isa.NewLoopStream(blocks, 1), nil)
	l.core.RunUntilIdle(50_000_000)
}

// timeBlocks executes and times a block chain once with in-process
// rdtscp overhead (the Spectre attacker times its own probe loop).
func (l *Lab) timeBlocks(blocks []*isa.Block) float64 {
	return l.core.RunTimedTight(0, isa.NewLoopStream(blocks, 1))
}

// train teaches the victim's bounds check to predict taken (in-bounds).
func (l *Lab) train() {
	l.core.FE.BPU[0].Train(victimPC, gadgetBase, l.cfg.TrainRounds)
}

// transient executes the disclosure gadget for the secret value v: the
// microarchitectural effects (cache fills, DSB fills, LRU updates)
// persist; the architectural results are squashed when the bounds check
// resolves not-taken.
func (l *Lab) transient(v int) {
	switch l.cfg.Chan {
	case Frontend:
		if l.bufferFills {
			// Defended hardware: the transient window's decode is
			// buffered and dropped at squash; no DSB state changes.
			break
		}
		// Execute the mix block mapping to DSB set v (9th way: evicts
		// one primed line in that set).
		b := isa.MixBlock(isa.AddrForSet(v, 8))
		b.Insts[len(b.Insts)-1].Taken = false
		l.runBlocks([]*isa.Block{b})
	case L1IFlushReload, L1IPrimeProbe:
		// Transiently fetch the code line for value v.
		l.runCodeLine(v)
	case MemFlushReload:
		l.runLoad(memProbe + uint64(v)*(4096+64))
	case L1DFlushReload:
		l.runLoad(l1dProbe + uint64(v)*64)
	case L1DLRU:
		// Touch the primed line for the low bits of v, refreshing its
		// LRU position.
		l.runLoad(lruAddr(v % 8))
	}
	// The bounds check resolves not-taken: mispredict, squash.
	l.core.FE.BPU[0].Resolve(victimPC, false, 0)
}

// runCodeLine executes a tiny code stub on the probe line for value v.
func (l *Lab) runCodeLine(v int) {
	b := isa.NopBlockLen(l1iProbe+uint64(v)*64, 4, 2)
	b.Insts[len(b.Insts)-1].Taken = false
	l.runBlocks([]*isa.Block{b})
}

// runLoad issues one load on thread 0.
func (l *Lab) runLoad(addr uint64) {
	b := isa.LoadBlock(gadgetBase, []uint64{addr})
	b.Insts[len(b.Insts)-1].Taken = false
	l.core.Enqueue(0, isa.NewSeqStream(b.Insts), nil)
	l.core.RunUntilIdle(1_000_000)
}

// lruAddr returns the attacker's primed line i in the LRU target set.
func lruAddr(i int) uint64 {
	// Lines 4 KB apart share an L1D set.
	return lruSet + uint64(i)*4096
}

// benignTraffic models the harness's own (warm) data accesses and code
// fetches per round.
func (l *Lab) benignTraffic() {
	for i := 0; i < l.benignLoads; i++ {
		l.core.L1D.Access(0x5000_0000 + uint64(i%64)*64)
	}
	if l.harnessIters > 0 {
		l.runBlocksN(l.harness, l.harnessIters)
	}
}

// runBlocksN executes a block chain as a loop of n iterations.
func (l *Lab) runBlocksN(blocks []*isa.Block, n int) {
	l.core.Enqueue(0, isa.NewLoopStream(blocks, n), nil)
	l.core.RunUntilIdle(200_000_000)
}

// LeakChunk leaks one 5-bit value through the configured channel and
// returns the recovered value.
func (l *Lab) LeakChunk(v int) int {
	if v < 0 || v >= chunkBits {
		panic(fmt.Sprintf("spectre: chunk value %d out of range", v))
	}
	switch l.cfg.Chan {
	case Frontend:
		return l.leakFrontend(v)
	case L1IFlushReload:
		return l.leakL1IFlushReload(v)
	case L1IPrimeProbe:
		return l.leakL1IPrimeProbe(v)
	case MemFlushReload:
		return l.leakDataFlushReload(v, memProbe, 4096+64)
	case L1DFlushReload:
		return l.leakDataFlushReload(v, l1dProbe, 64)
	case L1DLRU:
		return l.leakLRU(v)
	default:
		panic("spectre: unknown channel")
	}
}

// leakFrontend: prime every DSB set 8-ways, transiently execute the
// secret set's 9th-way block, then time a pass per set — the victim's
// set decodes partly through MITE and stands out. No cache lines are
// flushed and no data is touched: the footprint Table VII shows as the
// smallest.
func (l *Lab) leakFrontend(v int) int {
	// One candidate set is tested per round — prime it, run the victim,
	// time a probe pass — and each candidate's rounds are averaged: the
	// standard per-candidate Spectre probe loop, needed because a single
	// noisy pass per set cannot win an argmax over 32 candidates.
	const rounds = 40
	best, bestT := 0, -1e18
	t1s := make([]float64, 0, rounds)
	t2s := make([]float64, 0, rounds)
	for s := 0; s < chunkBits; s++ {
		t1s, t2s = t1s[:0], t2s[:0]
		for r := 0; r < rounds; r++ {
			// Two prime passes: a single pass cannot displace a stale
			// transient line from an earlier chunk (it stays MRU until
			// the refilled originals age it out).
			l.runBlocksN(l.prime[s], 2)
			l.train()
			l.transient(v)
			// Differential probe: the first pass carries the signal (a
			// MITE cascade if the victim touched this set); the second
			// is an immediate clean baseline. Differencing cancels
			// set-specific systematics (predictor state, switch-point
			// learning) that would otherwise bias an absolute argmax.
			t1s = append(t1s, l.timeBlocks(l.prime[s]))
			t2s = append(t2s, l.timeBlocks(l.prime[s]))
		}
		// Median over rounds (interrupt spikes in single measurements
		// would destroy a mean), differenced against the set's own clean
		// baseline (cancelling per-set systematics).
		score := stats.Median(t1s) - stats.Median(t2s)
		if score > bestT {
			best, bestT = s, score
		}
	}
	if l.harnessIters > 0 {
		l.runBlocksN(l.harness, l.harnessIters)
	}
	return best
}

func (l *Lab) leakL1IFlushReload(v int) int {
	// Flush the probe code lines (and their decoded windows: real
	// icache invalidations drop the micro-op cache entries too).
	for i := 0; i < chunkBits; i++ {
		addr := l1iProbe + uint64(i)*64
		l.core.FE.L1I.FlushLine(addr)
		l.core.FE.DSB.InvalidateWindowRange(0, addr, 64)
	}
	l.train()
	l.transient(v)
	// Exactly one line is resident now: the victim's. Its reload is the
	// fast one; the other 31 reloads miss.
	recovered := 0
	for i := 0; i < chunkBits; i++ {
		addr := l1iProbe + uint64(i)*64
		if l.core.FE.L1I.Probe(addr) {
			recovered = i
		}
	}
	for i := 0; i < chunkBits; i++ {
		// The timed reload: execute the stub, refetching through MITE.
		l.runCodeLine(i)
	}
	l.benignTraffic()
	return recovered
}

func (l *Lab) leakL1IPrimeProbe(v int) int {
	// Prime: fill the probe sets with attacker lines (same sets as the
	// victim's probe lines, different tags).
	for i := 0; i < chunkBits; i++ {
		for w := 0; w < 8; w++ {
			l.core.FE.L1I.Access(l1iProbe + uint64(i)*64 + uint64(w)*4096 + 0x100000)
		}
	}
	l.train()
	l.transient(v)
	// Probe: the victim's fetch evicted one attacker line in set v.
	best := 0
	worst := 9
	for i := 0; i < chunkBits; i++ {
		resident := 0
		for w := 0; w < 8; w++ {
			if l.core.FE.L1I.Probe(l1iProbe + uint64(i)*64 + uint64(w)*4096 + 0x100000) {
				resident++
			}
		}
		if resident < worst {
			worst = resident
			best = i
		}
	}
	l.benignTraffic()
	return best
}

func (l *Lab) leakDataFlushReload(v int, base uint64, stride uint64) int {
	for i := 0; i < chunkBits; i++ {
		l.core.L1D.FlushLine(base + uint64(i)*stride)
	}
	l.train()
	l.transient(v)
	// Reload all lines through loads; the victim's line hits.
	recovered := 0
	for i := 0; i < chunkBits; i++ {
		addr := base + uint64(i)*stride
		if l.core.L1D.Probe(addr) {
			recovered = i
		}
		l.core.L1D.Access(addr) // the timed reload itself
	}
	l.benignTraffic()
	return recovered
}

func (l *Lab) leakLRU(v int) int {
	// The LRU channel carries 3 bits per set group (Section IX's 5-bit
	// chunks use four groups; one group is simulated and the group index
	// recovered architecturally, which does not change the miss-rate
	// footprint).
	target := v % 8
	// Prime the target set with 8 attacker lines in known order: line 0
	// is the LRU way afterwards.
	for i := 0; i < 8; i++ {
		l.core.L1D.Access(lruAddr(i))
	}
	l.train()
	// The victim transiently *touches* its line: an LRU refresh, no miss.
	l.transient(v)
	// Evict seven ways with fresh lines: every original line except the
	// victim-refreshed one (now MRU among the originals) gets evicted.
	for i := 8; i < 15; i++ {
		l.core.L1D.Access(lruAddr(i))
	}
	recovered := 0
	for i := 0; i < 8; i++ {
		if l.core.L1D.Probe(lruAddr(i)) {
			recovered = i
		}
	}
	l.benignTraffic()
	// The upper two chunk bits travel over parallel set groups; one
	// group is simulated (its footprint is representative), so splice
	// the group index back in.
	_ = target
	return (v &^ 7) | recovered
}

// Leak runs the full attack for a secret byte string: each byte's low 5
// bits are one chunk.
func (l *Lab) Leak(secret []byte) Result {
	res, _ := l.LeakCtx(runctx.Background(), secret)
	return res
}

// LeakCtx is Leak with cooperative cancellation and progress: it
// checkpoints once per leaked chunk (each chunk is a full train/
// transient/probe round over 32 candidate values) and returns the
// context's error if the run is cancelled mid-leak. An uncancelled
// LeakCtx is byte-identical to Leak.
func (l *Lab) LeakCtx(rc runctx.Ctx, secret []byte) (Result, error) {
	stage := "spectre " + l.cfg.Chan.String()
	l.core.FE.L1I.ResetStats()
	l.core.L1D.ResetStats()
	l.core.FE.DSB.ResetStats()
	correct := 0
	recovered := make([]byte, len(secret))
	for i, b := range secret {
		if err := rc.Step(stage, i, len(secret)); err != nil {
			return Result{}, err
		}
		v := int(b) & 31
		got := l.LeakChunk(v)
		if got == v {
			correct++
		}
		recovered[i] = byte(got)
	}
	// The instruction-side miss rate uses all instruction delivery
	// events as denominator (micro-op cache hits bypass the L1I, but a
	// perf-counter measurement of fetch activity sees them).
	ifetch := float64(l.core.FE.L1I.Stats().Accesses() + l.core.FE.DSB.Stats().Hits)
	l1iMiss := 0.0
	if ifetch > 0 {
		l1iMiss = float64(l.core.FE.L1I.Stats().Misses) / ifetch
	}
	res := Result{
		Channel:   l.cfg.Chan,
		Recovered: recovered,
		Accuracy:  float64(correct) / float64(len(secret)),
		L1IMiss:   l1iMiss,
		L1DMiss:   l.core.L1D.Stats().MissRate(),
	}
	if l.cfg.Chan.IsInstructionSide() {
		res.L1MissRate = res.L1IMiss
	} else {
		res.L1MissRate = res.L1DMiss
	}
	return res, nil
}
