package cpu

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/clonecheck"
	"repro/internal/isa"
)

// nextOnly hides a stream's lookahead, so the frontend delivers it one
// instruction at a time: the reference for delivery in runs.
type nextOnly struct{ isa.Stream }

// CloneStream returns a copy of the wrapped stream itself, so that a
// copy of a reference core holds streams of the types a core delivering
// in runs holds, at the same positions.
func (s nextOnly) CloneStream() isa.Stream {
	return s.Stream.(isa.CloneableStream).CloneStream()
}

// deliveryPair is two cores built alike: run delivers its streams in
// runs, ref the same streams wrapped in nextOnly. runCopy and refCopy
// receive their copies for each comparison.
type deliveryPair struct {
	run, ref         *Core
	runCopy, refCopy *Core
	cov              deliveryCoverage
}

// deliveryCoverage tallies what a pair's steps exercised.
type deliveryCoverage struct {
	dsb, lsd, mite uint64 // micro-ops per path, both threads
	narrowed       int    // DSB or LSD deliveries with less IDQ room than the width
	partitioned    bool
}

func newDeliveryPair(m Model, seed uint64) *deliveryPair {
	return &deliveryPair{run: NewCore(m, seed), ref: NewCore(m, seed), runCopy: NewCore(m, 0), refCopy: NewCore(m, 0)}
}

// enqueue schedules a stream built by mk on thread t of both cores.
func (p *deliveryPair) enqueue(t int, mk func() isa.Stream) {
	p.run.Enqueue(t, mk(), nil)
	p.ref.Enqueue(t, nextOnly{mk()}, nil)
}

func (p *deliveryPair) loop(t int, blocks []*isa.Block, iters int) {
	flat := isa.Flatten(blocks)
	p.enqueue(t, func() isa.Stream { return isa.NewFlatLoopStream(flat, iters) })
}

func (p *deliveryPair) abort(t int) {
	p.run.AbortThread(t)
	p.ref.AbortThread(t)
}

// step steps both cores up to n times, stopping early once they drain,
// and requires them to hold the same state after every Step. It
// compares copies of the cores: a copy of ref holds the streams its
// wrappers wrap, so the diff covers every value, each stream's position
// included, but not the wrappers themselves.
func (p *deliveryPair) step(t *testing.T, n int) {
	t.Helper()
	width := p.run.Model.FE.DeliverWidth
	for range n {
		if p.run.Idle() && p.ref.Idle() {
			break
		}
		var free [2]int
		var fast [2]uint64
		for th := range 2 {
			free[th] = p.run.FE.IDQs()[th].Free()
			fast[th] = p.run.FE.Ctr[th].UOpsDSB + p.run.FE.Ctr[th].UOpsLSD
		}
		p.run.Step()
		p.ref.Step()
		for th := range 2 {
			if p.run.FE.Ctr[th].UOpsDSB+p.run.FE.Ctr[th].UOpsLSD > fast[th] && free[th] < width {
				p.cov.narrowed++
			}
		}
		p.cov.partitioned = p.cov.partitioned || p.run.FE.DSB.Partitioned()
		p.runCopy.CopyFrom(p.run)
		p.refCopy.CopyFrom(p.ref)
		if diff := clonecheck.Diff(p.runCopy, p.refCopy); len(diff) != 0 {
			t.Fatalf("cycle %d: delivery in runs and one instruction at a time differ:\n%s",
				p.run.Cycle(), strings.Join(diff, "\n"))
		}
	}
	p.cov.dsb, p.cov.lsd, p.cov.mite = 0, 0, 0
	for th := range 2 {
		c := p.run.FE.Ctr[th]
		p.cov.dsb += c.UOpsDSB
		p.cov.lsd += c.UOpsLSD
		p.cov.mite += c.UOpsMITE
	}
}

// TestRunsMatchPerInstruction holds delivery in runs to the
// per-instruction path: cores that deliver plain instructions in runs
// must hold, after every Step, exactly the state of cores built alike
// whose streams show no lookahead, down to dead IDQ slots and float
// bits. The cases are every steady loop shape on every steady model (on
// Gold 6226 only under -short); Figure 12's two threads, the 100-nop
// attacker beside a 300-window and then a 60-window victim, so the DSB
// partitions and the victim decodes through MITE; Table II's MT
// eviction pair at d=1, whose full IDQs narrow runs; a loop whose every
// run ends at the last plain instruction before the back-edge, through
// its final iteration; and a program that ends inside a run.
func TestRunsMatchPerInstruction(t *testing.T) {
	models := steadyModels()
	if testing.Short() {
		models = models[:1]
	}
	for _, m := range models {
		for _, loop := range steadyLoops() {
			t.Run(fmt.Sprintf("%s/lsd=%v/%s", m.Name, m.LSDEnabled, loop.name), func(t *testing.T) {
				p := newDeliveryPair(m, 3)
				p.loop(0, loop.blocks, min(loop.iters, 12))
				p.step(t, 1000)
			})
		}
	}

	t.Run("figure 12 pair", func(t *testing.T) {
		steps := 2000
		if testing.Short() {
			steps = 500
		}
		p := newDeliveryPair(Gold6226(), 1)
		p.loop(0, fingerprintAttacker(), 1000)
		p.loop(1, fingerprintVictim(300), 100)
		p.step(t, steps)
		p.abort(1)
		p.loop(1, fingerprintVictim(60), 100)
		p.step(t, steps)
		if p.cov.dsb == 0 || p.cov.mite == 0 || !p.cov.partitioned {
			t.Fatalf("the pair did not cover its case: %+v", p.cov)
		}
	})

	t.Run("table II MT eviction", func(t *testing.T) {
		// The d=1 receiver and the contended sender of Table II: eight
		// mix blocks in the receiver's set and a 280-nop pad.
		p := newDeliveryPair(Gold6226(), 1)
		const set, d = 20, 1
		var sender []*isa.Block
		for i := range isa.DSBWays + 1 - d {
			sender = append(sender, isa.MixBlock(isa.AddrForSet(set, d+i)))
		}
		p.loop(1, chained(append(sender, isa.NopBlockLen(isa.AddrForSet(28, 16+d), 280, 2))...), 333)
		receiver := chained(isa.MixBlock(isa.AddrForSet(set, 0)))
		for range 10 {
			p.loop(0, receiver, 33)
		}
		// Runs narrow once the receiver's ten passes are done and the
		// sender, alone, delivers faster than it retires.
		p.step(t, 2500)
		if p.cov.dsb == 0 || p.cov.narrowed == 0 {
			t.Fatalf("the pair did not cover its case: %+v", p.cov)
		}
	})

	t.Run("run ends before the final back-edge", func(t *testing.T) {
		// Four movs and a jump: each run ends at the last mov, so the
		// back-edge, not taken on the final iteration, loads after it.
		for _, m := range []Model{Gold6226(), Gold6226().WithLSD(false)} {
			p := newDeliveryPair(m, 1)
			p.loop(0, chained(isa.MixBlock(isa.AddrForSet(4, 1))), 30)
			p.step(t, 2000)
			if !p.run.Idle() || p.cov.dsb+p.cov.lsd == 0 {
				t.Fatalf("%s: the loop did not run out from the DSB or LSD: %+v", m.Name, p.cov)
			}
		}
	})

	t.Run("program ends inside a run", func(t *testing.T) {
		// A warm loop's instructions, dropping the final back-edge, so
		// the last run takes the program's last instruction.
		insts := isa.Drain(isa.NewLoopStream(isa.MixChain(3, 2, true), 20))
		insts = insts[:len(insts)-1]
		p := newDeliveryPair(Gold6226(), 1)
		p.enqueue(0, func() isa.Stream { return isa.NewSeqStream(insts) })
		p.step(t, 2000)
		if !p.run.Idle() || p.cov.dsb+p.cov.lsd == 0 {
			t.Fatalf("the program did not run out from the DSB or LSD: %+v", p.cov)
		}
	})
}

// FuzzRunsMatchPerInstruction builds a loop from the input out of
// FuzzSteadySkip's block kinds, with a second one on the sibling thread
// when bit 0 of data[1] is set and the model has one, and requires a
// core delivering in runs to hold, after every cycle, the state of a
// core built alike that delivers one instruction at a time. Bit 1
// drives thread 0 through a SeqStream of the loop instead: the loop's
// program of two pieces, body and exit body, as the leakage fuzzer runs
// it, or with bit 2 also set, the loop's instructions written out less
// the final back-edge, so the program ends inside a run.
func FuzzRunsMatchPerInstruction(f *testing.F) {
	f.Add([]byte{0, 0, 6, 3, 7, 0})
	f.Add([]byte{1, 1, 9, 20, 4, 0, 2 | 30<<3, 4})
	f.Add([]byte{4, 1, 3, 6, 2, 1 | 5<<3, 2 | 12<<3})
	f.Add([]byte{2, 6, 12, 9, 3, 0, 4, 2 | 7<<3})
	f.Add([]byte{1, 2, 7, 4, 5, 0, 2 | 9<<3, 3})
	f.Add([]byte{3, 1, 2, 28, 2, 3, 2 | 20<<3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		models := steadyModels()
		m := models[int(data[0])%len(models)]
		iters := 2 + int(data[2])%30
		kinds := data[5:]
		p := newDeliveryPair(m, uint64(data[0]))
		blocks := fuzzLoop(int(data[3])%isa.DSBSets, 1+int(data[4])%10, kinds)
		if data[1]&2 != 0 {
			flat := isa.Flatten(blocks)
			prog := isa.LoopProgram(flat, isa.ExitBody(flat), iters)
			if insts := prog.Insts(); data[1]&4 != 0 && len(insts) > 1 {
				prog = isa.Program{{Body: insts[:len(insts)-1], Count: 1}}
			}
			p.enqueue(0, func() isa.Stream { return prog.Stream() })
		} else {
			p.loop(0, blocks, iters)
		}
		if data[1]&1 != 0 && m.HyperThreading {
			// The sibling runs the kinds in reverse order in another set.
			rev := slices.Clone(kinds)
			slices.Reverse(rev)
			p.loop(1, fuzzLoop((int(data[3])+11)%isa.DSBSets, 1+int(data[4]>>4)%10, rev), iters)
		}
		p.step(t, 500)
	})
}
