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

// TestLoopStreamAppendMatchesNext pins Append to the stream it
// materializes: from any position, Append yields exactly the
// instructions Next would, the final back-edge included, and leaves the
// stream exhausted.
func TestLoopStreamAppendMatchesNext(t *testing.T) {
	pause := []*Block{PauseBlock(AddrForSet(7, 1), 4)}
	ChainLoop(pause)
	for _, blocks := range [][]*Block{MixChain(3, 4, true), MixChain(5, 2, false), pause} {
		body := len(Flatten(blocks))
		for _, iters := range []int{1, 2, 5} {
			for _, consumed := range []int{0, 1, body - 1, body, body + 2, body * iters} {
				if consumed > body*iters {
					continue
				}
				s := NewLoopStream(blocks, iters)
				for i := 0; i < consumed; i++ {
					s.Next()
				}
				ref := s.CloneStream()
				var want []Inst
				for in, ok := ref.Next(); ok; in, ok = ref.Next() {
					want = append(want, in)
				}
				prefix := []Inst{{Kind: Nop}}
				got := s.Append(prefix)
				if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
					t.Fatalf("blocks %d, iters %d, after %d: Append differs from Next (%d vs %d insts)",
						len(blocks), iters, consumed, len(got)-1, len(want))
				}
				if _, ok := s.Next(); ok {
					t.Fatalf("blocks %d, iters %d, after %d: stream not exhausted by Append", len(blocks), iters, consumed)
				}
			}
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

func TestConcat(t *testing.T) {
	a := NewSeqStream(MixBlock(0x100).Insts)
	b := NewSeqStream(MixBlock(0x200).Insts)
	s := Concat(a, b)
	n := 0
	for {
		_, ok := s.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Errorf("concat yielded %d, want 10", n)
	}
}

func TestConcatEmpty(t *testing.T) {
	s := Concat()
	if _, ok := s.Next(); ok {
		t.Error("empty concat should be exhausted")
	}
}

func TestFuncStream(t *testing.T) {
	n := 0
	s := FuncStream(func() (Inst, bool) {
		if n >= 3 {
			return Inst{}, false
		}
		n++
		return Inst{Kind: Nop, UOps: 1, Len: 1}, true
	})
	if got := CountUOps(s); got != 3 {
		t.Errorf("FuncStream uops = %d, want 3", got)
	}
}

// TestLoopStreamRecursAndAdvance pins the steady-loop skip's stream
// helpers: a stream whole iterations past its copy recurs, every other
// difference breaks the recurrence, and Advance lands exactly where
// drawing the skipped instructions would.
func TestLoopStreamRecursAndAdvance(t *testing.T) {
	flat := Flatten(MixChain(3, 2, true))
	s := NewFlatLoopStream(flat, 100)
	for range 3 {
		s.Next()
	}
	prev := *s
	for range 2 * len(flat) {
		s.Next()
	}
	if !s.Recurs(&prev) {
		t.Fatal("two iterations later the stream does not recur")
	}
	for name, change := range map[string]func(x *LoopStream){
		"position":     func(x *LoopStream) { x.pos++ },
		"total":        func(x *LoopStream) { x.iters++ },
		"no iteration": func(x *LoopStream) { x.iter = prev.iter },
		"shorter body": func(x *LoopStream) { x.flat = x.flat[:len(x.flat)-1] },
		"other body":   func(x *LoopStream) { x.flat = slices.Clone(x.flat) },
	} {
		x := *s
		change(&x)
		if x.Recurs(&prev) {
			t.Errorf("%s: stream still recurs", name)
		}
	}
	want := *s
	for range 3 * 2 * len(flat) {
		want.Next()
	}
	s.Advance(&prev, 3)
	if s.pos != want.pos || s.iter != want.iter {
		t.Fatalf("advanced to pos %d iter %d, drawing reaches pos %d iter %d", s.pos, s.iter, want.pos, want.iter)
	}
}

// TestAheadAndSkipFollowNext drains streams by taking, at each step, a
// prefix of Ahead's view with Skip and then one instruction with Next,
// and requires exactly the instructions Next alone yields, the final
// back-edge not taken. A loop's view never holds its back-edge, which
// only Next yields.
func TestAheadAndSkipFollowNext(t *testing.T) {
	blocks := MixChain(2, 3, true)
	flat := Flatten(blocks)
	type viewer interface {
		Stream
		Ahead() []Inst
		Skip(k int)
	}
	for _, tc := range []struct {
		name   string
		mk     func() viewer
		window int // instructions the view may hold at most
	}{
		{"loop", func() viewer { return NewFlatLoopStream(flat, 4) }, len(flat) - 1},
		{"seq", func() viewer { return NewSeqStream(NewLoopStream(blocks, 4).Append(nil)) }, 4 * len(flat)},
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
