// Package leakfuzz is a coverage-guided fuzzer for the frontend leakage
// contract (internal/contract), in the style of Geier et al.'s
// leakage-contract fuzzing. A candidate is a Genome: a small program of
// loop phases (genes) built through internal/isa, split into a
// secret-dependent preparation phase and a public probe. The fuzzer
// executes both secret arms on private simulator cores, compares the
// probe's contract traces, and reports any divergence as a leakage
// counterexample — minimized, classified against the paper's known
// channel families, and emitted as a near-valid ChannelSpec candidate.
//
// Everything is deterministic: mutation randomness comes from
// internal/rng seeded once, and the simulator's contract path draws no
// noise, so a (seed, budget) pair always reproduces the same findings.
//
// An arm runs as a program of its genes' loop bodies (isa.Program): each
// gene is one loop piece, its body run Iters times. A campaign builds
// each body once, in a table it owns, and no evaluation writes an arm's
// instructions out.
//
// Every mutated child comes from a corpus genome and differs from it in
// a gene or two, so each of its arms starts with genes one of its
// parent's arms ran. A campaign keeps executor snapshots of every corpus
// genome's arms at each gene boundary, within a fixed byte budget, and
// resumes a child's arm from the deepest snapshot whose genes it shares
// instead of re-simulating that prefix (snap.go). The resumed traces are
// bit for bit those of a fresh executor.
package leakfuzz

import (
	"encoding/json"
	"fmt"

	"repro/internal/contract"
	"repro/internal/isa"
)

// Op selects the block family a gene materializes, mirroring the
// paper's building blocks (Sections IV-D, IV-G, V-E, XI-A).
type Op uint8

// Gene ops.
const (
	// OpMix is a chained mov-block loop pinned to one DSB set
	// (isa.MixChain) — the eviction and misalignment substrate.
	OpMix Op = iota
	// OpLCP is the Figure 4 length-changing-prefix add loop
	// (isa.LCPBlock) — the slow-switch substrate.
	OpLCP
	// OpNop is a nop window (isa.NopBlockLen). Flag selects 1-byte
	// nops, which overflow the per-window micro-op budget and are
	// therefore never DSB-cached: MITE-only code that can train the
	// branch predictor without touching DSB state.
	OpNop
	// OpPause is a pause pad (isa.PauseBlock).
	OpPause

	opCount
)

// Alt is how the secret bit rewrites a prep gene between the two arms:
// arm 0 runs the gene as written, arm 1 runs the altered form. Probe
// genes are public and always AltNone.
type Alt uint8

// Gene alterations.
const (
	AltNone  Alt = iota // identical in both arms
	AltSkip             // arm 1 omits the gene
	AltSet              // arm 1 shifts the target DSB set by half the index space
	AltFlip             // arm 1 flips the layout flag (alignment / issue order / nop density)
	AltIters            // arm 1 runs extra iterations

	altCount
)

// Genome size and value clamps. They bound one evaluation to a few
// hundred observation windows so a fuzzing budget is spent on breadth,
// not on one pathological giant.
const (
	maxPrepGenes  = 6
	maxProbeGenes = 3
	maxIters      = 48
	maxWays       = 8
	// lcpR is the adds-per-half of an LCP block (Figure 4). 14 rather
	// than a power of two so an ordered block's two switch points map to
	// distinct switch-buffer slots and the trained-transition channel is
	// expressible.
	lcpR         = 14
	nopCount     = 24
	pauseCount   = 4
	altIterExtra = 3
)

// Gene is one loop phase: Iters iterations of a block chain selected by
// Op at DSB set Set, Ways blocks (or the way index for single-block
// ops), with Flag selecting the op's layout variant.
type Gene struct {
	Op    Op   `json:"op"`
	Set   int  `json:"set"`
	Ways  int  `json:"ways"`
	Iters int  `json:"iters"`
	Flag  bool `json:"flag,omitempty"`
	Alt   Alt  `json:"alt,omitempty"`
}

// Genome is one candidate secret-pair program: prep runs first (the
// secret-dependent victim), probe second (the public attacker code whose
// contract trace must not depend on the secret).
type Genome struct {
	Prep  []Gene `json:"prep,omitempty"`
	Probe []Gene `json:"probe"`
}

// normalize clamps a gene into the valid space. Any int/bool combination
// becomes buildable.
func (g Gene) normalize() Gene {
	g.Op = Op(int(g.Op) % int(opCount))
	g.Set = ((g.Set % isa.DSBSets) + isa.DSBSets) % isa.DSBSets
	if g.Ways < 1 {
		g.Ways = 1
	} else if g.Ways > maxWays {
		g.Ways = maxWays
	}
	if g.Iters < 1 {
		g.Iters = 1
	} else if g.Iters > maxIters {
		g.Iters = maxIters
	}
	g.Alt = Alt(int(g.Alt) % int(altCount))
	return g
}

// Normalize clamps the genome into the valid space: at most maxPrepGenes
// prep genes, one to maxProbeGenes probe genes (a default probe is
// synthesized if none survive), every gene clamped, and probe genes
// forced public (AltNone).
func (g Genome) Normalize() Genome {
	n := Genome{}
	for _, gene := range g.Prep {
		if len(n.Prep) == maxPrepGenes {
			break
		}
		n.Prep = append(n.Prep, gene.normalize())
	}
	for _, gene := range g.Probe {
		if len(n.Probe) == maxProbeGenes {
			break
		}
		gene = gene.normalize()
		gene.Alt = AltNone
		n.Probe = append(n.Probe, gene)
	}
	if len(n.Probe) == 0 {
		n.Probe = []Gene{{Op: OpMix, Set: 20, Ways: 6, Iters: 2, Flag: true}}
	}
	return n
}

// arm applies the gene's alteration for the given secret arm. ok=false
// means the gene is absent from this arm.
func (g Gene) arm(secret bool) (Gene, bool) {
	if !secret || g.Alt == AltNone {
		g.Alt = AltNone
		return g, true
	}
	switch g.Alt {
	case AltSkip:
		return g, false
	case AltSet:
		g.Set = (g.Set + isa.DSBSets/2) % isa.DSBSets
	case AltFlip:
		g.Flag = !g.Flag
	case AltIters:
		g.Iters += altIterExtra
	}
	g.Alt = AltNone
	return g, true
}

// blocks materializes the gene's chained block loop.
func (g Gene) blocks() []*isa.Block {
	single := func(b *isa.Block) []*isa.Block {
		bs := []*isa.Block{b}
		isa.ChainLoop(bs)
		return bs
	}
	way := g.Ways - 1
	switch g.Op {
	case OpLCP:
		return single(isa.LCPBlock(isa.AddrForSet(g.Set, way), lcpR, g.Flag))
	case OpNop:
		nopLen := 2
		if g.Flag {
			nopLen = 1 // dense: uncacheable window, MITE-only
		}
		return single(isa.NopBlockLen(isa.AddrForSet(g.Set, way), nopCount, nopLen))
	case OpPause:
		return single(isa.PauseBlock(isa.AddrForSet(g.Set, way), pauseCount))
	default:
		return isa.MixChain(g.Set, g.Ways, g.Flag)
	}
}

// loops holds the loop bodies a campaign has built, by gene with its
// Iters and Alt cleared: at most 2,048 of them (4 ops, 32 sets, 8 ways,
// 2 flags). Arms run programs over these bodies and never write their
// instructions out.
type loops map[Gene][]isa.Inst

// of returns the loop body of an armed gene, building it on first use.
func (ls loops) of(g Gene) []isa.Inst {
	k := Gene{Op: g.Op, Set: g.Set, Ways: g.Ways, Flag: g.Flag}
	body, ok := ls[k]
	if !ok {
		body = isa.Flatten(k.blocks())
		ls[k] = body
	}
	return body
}

// phase is one phase of a secret arm, built: the genes the arm runs,
// altered for its secret, their program, and where each gene's
// instructions end.
type phase struct {
	genes []Gene
	prog  isa.Program
	ends  []int
}

// build writes the genes' loops as one secret arm runs them, one loop
// piece per gene over a body from ls. A gene's instructions depend on
// that armed gene alone.
func build(genes []Gene, secret bool, ls loops) phase {
	ph := phase{
		genes: make([]Gene, 0, len(genes)),
		prog:  make(isa.Program, 0, len(genes)),
		ends:  make([]int, 0, len(genes)),
	}
	for _, gene := range genes {
		if a, ok := gene.arm(secret); ok {
			ph.prog = append(ph.prog, isa.LoopProgram(ls.of(a), a.Iters)...)
			ph.genes = append(ph.genes, a)
			ph.ends = append(ph.ends, ph.prog.Len())
		}
	}
	return ph
}

// BuildPair writes the genome out as a contract secret-pair. The
// genome must be normalized; the probe is identical in both arms by
// construction (probe genes carry no Alt).
func (g Genome) BuildPair() contract.Pair {
	ls := loops{}
	return contract.Pair{
		Prep0: build(g.Prep, false, ls).prog.Insts(),
		Prep1: build(g.Prep, true, ls).prog.Insts(),
		Probe: build(g.Probe, false, ls).prog.Insts(),
	}
}

// key is a canonical identity for corpus dedup.
func (g Genome) key() string {
	b, err := json.Marshal(g)
	if err != nil {
		panic(fmt.Sprintf("leakfuzz: genome marshal: %v", err))
	}
	return string(b)
}

// clone deep-copies the genome so mutation never aliases corpus entries.
func (g Genome) clone() Genome {
	return Genome{
		Prep:  append([]Gene(nil), g.Prep...),
		Probe: append([]Gene(nil), g.Probe...),
	}
}

// geneBytes is the encoded size DecodeGenome consumes per gene.
const geneBytes = 5

// DecodeGenome maps an arbitrary byte string onto a normalized genome —
// the bridge that lets `go test -fuzz` drive the contract through its
// native corpus format. The first byte splits the gene budget between
// prep and probe; each subsequent 5-byte group is one gene.
func DecodeGenome(data []byte) Genome {
	var g Genome
	if len(data) == 0 {
		return g.Normalize()
	}
	nPrep := int(data[0]) % (maxPrepGenes + 1)
	data = data[1:]
	for len(data) >= geneBytes {
		gene := Gene{
			Op:    Op(data[0]),
			Set:   int(data[1]),
			Ways:  int(data[2]),
			Iters: int(data[3]),
			Flag:  data[4]&1 != 0,
			Alt:   Alt(data[4] >> 1),
		}
		if len(g.Prep) < nPrep {
			g.Prep = append(g.Prep, gene)
		} else {
			g.Probe = append(g.Probe, gene)
		}
		data = data[geneBytes:]
	}
	return g.Normalize()
}
