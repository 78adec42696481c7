package isa

import (
	"slices"
	"testing"
)

func TestLoopStreamCount(t *testing.T) {
	blocks := MixChain(0, 4, true)
	s := NewLoopStream(blocks, 3)
	n := 0
	for {
		_, ok := s.Next()
		if !ok {
			break
		}
		n++
	}
	if want := 4 * 5 * 3; n != want {
		t.Errorf("LoopStream yielded %d insts, want %d", n, want)
	}
}

func TestLoopStreamFinalBranchNotTaken(t *testing.T) {
	blocks := MixChain(0, 2, true)
	s := NewLoopStream(blocks, 2)
	var insts []Inst
	for {
		in, ok := s.Next()
		if !ok {
			break
		}
		insts = append(insts, in)
	}
	last := insts[len(insts)-1]
	if last.Kind != Jmp {
		t.Fatalf("last inst is %v, want jmp", last.Kind)
	}
	if last.Taken {
		t.Error("final loop back-edge must be not taken (loop exit)")
	}
	// All other jumps taken.
	for i, in := range insts[:len(insts)-1] {
		if in.Kind == Jmp && !in.Taken {
			t.Errorf("intermediate jmp %d not taken", i)
		}
	}
}

func TestLoopStreamUOpsMatchBlocks(t *testing.T) {
	blocks := MixChain(3, 8, true)
	want := 0
	for _, b := range blocks {
		want += b.UOps()
	}
	got := CountUOps(NewLoopStream(blocks, 1))
	if got != want {
		t.Errorf("stream uops = %d, want %d", got, want)
	}
}

func TestLoopStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty blocks")
		}
	}()
	NewLoopStream(nil, 1)
}

// TestLoopProgramMatchesLoopStream pins the one piece a loop is
// written as to the loop written out by hand: LoopProgram and
// NewLoopStream yield the body iters times over, every back-edge taken
// but the final one, and Insts writes out the same instructions without
// writing into the body.
func TestLoopProgramMatchesLoopStream(t *testing.T) {
	pause := []*Block{PauseBlock(AddrForSet(7, 1), 4)}
	ChainLoop(pause)
	for _, blocks := range [][]*Block{MixChain(3, 4, true), MixChain(5, 2, false), pause} {
		flat := Flatten(blocks)
		for _, iters := range []int{1, 2, 5} {
			var want []Inst
			for range iters {
				want = append(want, flat...)
			}
			want[len(want)-1].Taken = false
			prog := LoopProgram(flat, iters)
			if got := Drain(prog.Stream()); !slices.Equal(got, want) {
				t.Fatalf("blocks %d, iters %d: the program yields %d instructions, not the loop's %d", len(blocks), iters, len(got), len(want))
			}
			if got := Drain(NewLoopStream(blocks, iters)); !slices.Equal(got, want) {
				t.Fatalf("blocks %d, iters %d: the loop stream yields %d instructions, not the loop's %d", len(blocks), iters, len(got), len(want))
			}
			if !slices.Equal(prog.Insts(), want) || prog.Len() != len(want) {
				t.Fatalf("blocks %d, iters %d: Insts or Len differ from the loop's instructions", len(blocks), iters)
			}
		}
		if !flat[len(flat)-1].Taken {
			t.Fatal("the loop wrote into the body it reads")
		}
	}
}

// TestSeqStreamWalksPieces drives a program with empty bodies, zero
// counts, repeated pieces and a loop through every entry point: from any
// position, Next, Pos, a copy, and Retarget (to the same program, and
// through an empty one as a snapshot detaches it) yield exactly the rest
// of the program written out.
func TestSeqStreamWalksPieces(t *testing.T) {
	a, b := MixBlock(0x100).Insts, MixBlock(0x200).Insts[:3]
	exit := slices.Clone(a)
	exit[len(exit)-1].Taken = false
	prog := Program{{Body: nil, Count: 3}, {Body: a, Count: 2}, {Body: b, Count: 0}, {Body: b, Count: 1},
		{Body: a[:1], Count: 3}, {Body: a, Count: 0}, {Body: a, Count: 2, Loop: true}}
	want := slices.Concat(a, a, b, a[:1], a[:1], a[:1], a, exit)
	if !slices.Equal(prog.Insts(), want) || prog.Len() != len(want) {
		t.Fatalf("Insts writes %d instructions, Len says %d, want %d", len(prog.Insts()), prog.Len(), len(want))
	}
	for at := 0; at <= len(want); at++ {
		s := prog.Stream()
		for i := 0; i < at; i++ {
			s.Next()
		}
		if s.Pos() != at {
			t.Fatalf("after %d instructions Pos is %d", at, s.Pos())
		}
		c := s
		c.Retarget(nil)
		c.Retarget(prog)
		for name, x := range map[string]SeqStream{"stream": s, "copy": s, "retargeted": c} {
			if got := Drain(x); !slices.Equal(got, want[at:]) {
				t.Fatalf("%s at %d yields %d instructions, want %d", name, at, len(got), len(want)-at)
			}
		}
		for _, ok := s.Next(); ok; _, ok = s.Next() {
		}
		if s.Pos() != len(want) {
			t.Fatalf("drained stream's Pos is %d, want %d", s.Pos(), len(want))
		}
	}
	if s := (Program{{Body: nil, Count: 2}}).Stream(); len(s.Ahead()) != 0 || len(Drain(s)) != 0 {
		t.Fatal("a program of empty pieces yields instructions")
	}
}

// TestProgramEqual pins Equal to comparing the written-out instructions,
// whatever pieces the two programs are written as.
func TestProgramEqual(t *testing.T) {
	flat := Flatten(MixChain(3, 2, true))
	exit := slices.Clone(flat)
	exit[len(exit)-1].Taken = false
	loop := LoopProgram(flat, 3)
	other := MixBlock(0x300).Insts
	for _, tc := range []struct {
		name string
		p, q Program
		want bool
	}{
		{"same program", loop, loop, true},
		{"written out", loop, Program{{Body: loop.Insts(), Count: 1}}, true},
		{"copied bodies", loop, LoopProgram(slices.Clone(flat), 3), true},
		{"split pieces", loop, Program{{Body: flat, Count: 1}, {Body: flat, Count: 1}, {Body: exit, Count: 1}}, true},
		{"split loop", loop, Program{{Body: flat, Count: 2}, {Body: flat, Count: 1, Loop: true}}, true},
		{"empty", nil, Program{{Body: flat, Count: 0}}, true},
		{"prefix", loop, LoopProgram(flat, 2), false},
		{"loop not exited", loop, Program{{Body: flat, Count: 3}}, false},
		{"longer", loop, append(slices.Clone(loop), Piece{Body: other, Count: 1}), false},
		{"exit not taken", Program{{Body: flat, Count: 1}}, Program{{Body: exit, Count: 1}}, false},
		{"empty and not", nil, loop, false},
	} {
		if got, rev := tc.p.Equal(tc.q), tc.q.Equal(tc.p); got != tc.want || rev != tc.want {
			t.Errorf("%s: Equal = %v and %v, want %v", tc.name, got, rev, tc.want)
		}
		if got := slices.Equal(tc.p.Insts(), tc.q.Insts()); got != tc.want {
			t.Errorf("%s: written out, equal = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSeqStream(t *testing.T) {
	insts := MixBlock(0x100).Insts
	s := NewSeqStream(insts)
	for i := range insts {
		in, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended early at %d", i)
		}
		if in.Addr != insts[i].Addr {
			t.Errorf("inst %d addr mismatch", i)
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("stream should be exhausted")
	}
}

// TestLoopStreamRecursAndAdvance pins the steady-loop skip's stream
// helpers: a stream whole repetitions of its piece past its copy
// recurs, every other difference breaks the recurrence, and Advance
// lands exactly where drawing the skipped instructions would.
func TestLoopStreamRecursAndAdvance(t *testing.T) {
	flat := Flatten(MixChain(3, 2, true))
	s := NewFlatLoopStream(flat, 100)
	for range 3 {
		s.Next()
	}
	prev := s
	for range 2 * len(flat) {
		s.Next()
	}
	if !s.Recurs(&prev) {
		t.Fatal("two iterations later the stream does not recur")
	}
	for name, change := range map[string]func(x *SeqStream){
		"position":     func(x *SeqStream) { x.off++ },
		"total":        func(x *SeqStream) { x.cur.Count++ },
		"no iteration": func(x *SeqStream) { x.rep = prev.rep },
		"other piece":  func(x *SeqStream) { x.next++ },
		"not a loop":   func(x *SeqStream) { x.cur.Loop = false },
		"shorter body": func(x *SeqStream) { x.cur.Body = x.cur.Body[:len(x.cur.Body)-1] },
		"other body":   func(x *SeqStream) { x.cur.Body = slices.Clone(x.cur.Body) },
	} {
		x := s
		change(&x)
		if x.Recurs(&prev) {
			t.Errorf("%s: stream still recurs", name)
		}
	}
	want := s
	for range 3 * 2 * len(flat) {
		want.Next()
	}
	s.Advance(&prev, 3)
	if s.off != want.off || s.rep != want.rep || s.pos != want.pos {
		t.Fatalf("advanced to offset %d repetition %d position %d, drawing reaches %d, %d, %d",
			s.off, s.rep, s.pos, want.off, want.rep, want.pos)
	}
}

// TestAheadAndSkipFollowNext drains streams by taking, at each step, a
// prefix of Ahead's view with Skip and then one instruction with Next,
// and requires exactly the instructions Next alone yields, the final
// back-edge not taken. A loop's view never holds its back-edge, which
// only Next yields, and the per-instruction reference shows no view.
func TestAheadAndSkipFollowNext(t *testing.T) {
	blocks := MixChain(2, 3, true)
	flat := Flatten(blocks)
	for _, tc := range []struct {
		name   string
		mk     func() SeqStream
		window int // instructions the view may hold at most
	}{
		{"loop", func() SeqStream { return NewFlatLoopStream(flat, 4) }, len(flat) - 1},
		{"seq", func() SeqStream { return NewSeqStream(Drain(NewLoopStream(blocks, 4))) }, 4 * len(flat)},
		{"program", func() SeqStream {
			return Program{{Body: flat, Count: 1}, {Body: flat, Count: 3, Loop: true}}.Stream()
		}, len(flat)},
		{"reference", func() SeqStream { return NextOnly(NewFlatLoopStream(flat, 4)) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []Inst
			for s := tc.mk(); ; {
				in, ok := s.Next()
				if !ok {
					break
				}
				want = append(want, in)
			}
			for step := 0; step < 7; step++ {
				var got []Inst
				s := tc.mk()
				for i := 0; ; i++ {
					ahead := s.Ahead()
					if len(ahead) > tc.window {
						t.Fatalf("view of %d instructions, want at most %d", len(ahead), tc.window)
					}
					if tc.name == "loop" && len(ahead) > 0 && &ahead[len(ahead)-1] == &flat[len(flat)-1] {
						t.Fatal("the loop's view holds its back-edge")
					}
					k := min(len(ahead), (i*step)%5)
					got = append(got, ahead[:k]...)
					s.Skip(k)
					in, ok := s.Next()
					if !ok {
						break
					}
					got = append(got, in)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("skip pattern %d yields %d instructions, not the %d Next yields", step, len(got), len(want))
				}
			}
		})
	}
}
