package isa

import "slices"

// Piece is a stretch of a program: Body, yielded Count times over.
// Count is at least 0. A loop piece is Body run as a loop Count times:
// on its last repetition the body's final instruction, the back-edge,
// is yielded not taken if it is a jmp (the loop exits), exactly the
// branch pattern that ends LSD streaming in the paper (Section IV).
type Piece struct {
	Body  []Inst
	Count int
	Loop  bool
}

// Program is a dynamic instruction sequence written as pieces, yielded
// in order. A loop is one piece (LoopProgram), so a program of loops is
// never written out instruction by instruction. Its bodies are read,
// never written, so one body can back any number of programs and
// streams.
type Program []Piece

// LoopProgram returns the program of a loop over flat that runs iters
// times, iters at least 1: one loop piece, which reads flat in place.
func LoopProgram(flat []Inst, iters int) Program {
	return Program{{Body: flat, Count: iters, Loop: true}}
}

// Flatten concatenates a chained block group's instructions into one
// contiguous slice. Channels flatten their block layouts once at
// construction and wrap the result with NewFlatLoopStream per bit,
// instead of re-flattening on every stream build.
func Flatten(blocks []*Block) []Inst {
	n := 0
	for _, b := range blocks {
		n += len(b.Insts)
	}
	flat := make([]Inst, 0, n)
	for _, b := range blocks {
		flat = append(flat, b.Insts...)
	}
	return flat
}

// Len returns how many instructions the program yields.
func (p Program) Len() int {
	n := 0
	for _, pc := range p {
		n += len(pc.Body) * pc.Count
	}
	return n
}

// Insts writes the program out: every instruction it yields, in order.
func (p Program) Insts() []Inst { return p.Stream().appendTo(make([]Inst, 0, p.Len())) }

// Equal reports whether p and q yield the same instructions. It walks
// the two in lockstep, a stretch of bodies at a time; stretches of the
// same body compare without reading it.
func (p Program) Equal(q Program) bool {
	a, b := p.Stream(), q.Stream()
	for {
		x, y := a.Ahead(), b.Ahead()
		if n := min(len(x), len(y)); n > 0 {
			if &x[0] != &y[0] && !slices.Equal(x[:n], y[:n]) {
				return false
			}
			a.Skip(n)
			b.Skip(n)
			continue
		}
		i, ok := a.Next()
		j, more := b.Next()
		if ok != more || i != j {
			return false
		}
		if !ok {
			return true
		}
	}
}

// Stream returns a stream that yields the program once.
func (p Program) Stream() SeqStream {
	s := SeqStream{prog: p}
	s.seek()
	return s
}

// SeqStream is a dynamic instruction stream: the sequence of
// instruction instances a hardware thread executes, in program order.
// It is a cursor over a program, piece after piece, and a value: a copy
// continues from the same position independently, since the program it
// reads is never written. The frontend simulator holds one per thread
// and pulls from it as it fetches.
type SeqStream struct {
	prog Program
	next int   // the piece of prog after the current one
	cur  Piece // the current piece; the zero Piece once the stream is exhausted
	rep  int   // repetitions of the current piece finished
	off  int   // instructions of the current repetition yielded
	pos  int   // instructions yielded in all
	// noView empties Ahead: see NextOnly.
	noView bool
}

// NewSeqStream returns a stream that yields insts once.
func NewSeqStream(insts []Inst) SeqStream {
	return SeqStream{cur: Piece{Body: insts, Count: 1}}
}

// NewLoopStream returns a stream that executes the blocks in order,
// iters times. Every terminating jmp is taken except the final jmp of
// the final iteration, which is not taken (the loop exits). It panics
// if blocks is empty or iters < 1.
func NewLoopStream(blocks []*Block, iters int) SeqStream {
	if len(blocks) == 0 {
		panic("isa: NewLoopStream with no blocks")
	}
	return NewFlatLoopStream(Flatten(blocks), iters)
}

// NewFlatLoopStream is NewLoopStream over a pre-flattened instruction
// sequence: the stream of LoopProgram(flat, iters). It reads flat but
// never writes it (the final back-edge's Taken flip happens on a copy),
// so one flattened layout can back any number of streams, sequentially
// or concurrently.
func NewFlatLoopStream(flat []Inst, iters int) SeqStream {
	if len(flat) == 0 {
		panic("isa: NewFlatLoopStream with no instructions")
	}
	if iters < 1 {
		panic("isa: NewFlatLoopStream with iters < 1")
	}
	return SeqStream{cur: Piece{Body: flat, Count: iters, Loop: true}}
}

// NextOnly returns a copy of s whose Ahead is always empty, so that a
// frontend delivers it one instruction at a time. It is the reference
// that delivery in runs is tested against, not a stream to simulate
// with.
func NextOnly(s SeqStream) SeqStream {
	s.noView = true
	return s
}

// Next returns the next dynamic instruction, or ok=false when the
// stream is exhausted.
func (s *SeqStream) Next() (Inst, bool) {
	if s.off >= len(s.cur.Body) {
		return Inst{}, false
	}
	in := s.cur.Body[s.off]
	s.off++
	s.pos++
	if s.off == len(s.cur.Body) {
		if s.cur.Loop && s.rep == s.cur.Count-1 && in.Kind == Jmp {
			// Loop exit: final back-edge not taken.
			in.Taken = false
		}
		s.turn()
	}
	return in, true
}

// turn moves past a finished repetition of the current piece: to its
// next repetition, or to the first piece after it that yields anything.
func (s *SeqStream) turn() {
	s.off = 0
	if s.rep++; s.rep < s.cur.Count {
		return
	}
	s.rep = 0
	for s.next < len(s.prog) {
		pc := s.prog[s.next]
		s.next++
		if pc.Count > 0 && len(pc.Body) > 0 {
			s.cur = pc
			return
		}
	}
	s.cur = Piece{}
}

// seek places the stream pos instructions into its program, or past its
// end.
func (s *SeqStream) seek() {
	s.next, s.cur, s.rep, s.off = 0, Piece{}, 0, 0
	rest := s.pos
	for s.next < len(s.prog) {
		pc := s.prog[s.next]
		s.next++
		n := len(pc.Body) * pc.Count
		if rest < n {
			s.cur, s.rep, s.off = pc, rest/len(pc.Body), rest%len(pc.Body)
			return
		}
		rest -= n
	}
}

// Ahead returns the instructions Next yields next without consuming
// them: the rest of the current repetition of a piece's body, less a
// loop body's final instruction, whose Taken flip and repetition count
// are left to Next. The view is the program itself: read it, do not
// write or keep it. Skip consumes a prefix of the view.
func (s *SeqStream) Ahead() []Inst {
	end := len(s.cur.Body)
	if s.cur.Loop {
		end--
	}
	if s.noView || s.off >= end {
		return nil
	}
	return s.cur.Body[s.off:end]
}

// Skip consumes the first k instructions of Ahead's view, k at most its
// length, as k calls of Next would.
func (s *SeqStream) Skip(k int) {
	s.off += k
	s.pos += k
	if s.off == len(s.cur.Body) {
		s.turn()
	}
}

// Pos returns how many instructions the stream has yielded.
func (s *SeqStream) Pos() int { return s.pos }

// Retarget makes s continue over prog from its position: the
// instructions s has yielded are taken to be prog's first ones, and
// Next goes on with the rest of prog. The contract executor resumes a
// snapshot's phase over a new program this way.
func (s *SeqStream) Retarget(prog Program) {
	s.prog = prog
	s.seek()
}

// Progress returns how many repetitions of its current piece the stream
// has finished, and how many the piece makes in all.
func (s *SeqStream) Progress() (rep, count int) { return s.rep, s.cur.Count }

// Recurs reports whether s, a copy of prev some whole repetitions
// later, is at prev's position in the same piece.
func (s *SeqStream) Recurs(prev *SeqStream) bool {
	return s.off == prev.off && s.next == prev.next && s.rep > prev.rep &&
		s.cur.Count == prev.cur.Count && s.cur.Loop == prev.cur.Loop &&
		len(s.cur.Body) == len(prev.cur.Body) && &s.cur.Body[0] == &prev.cur.Body[0]
}

// Advance moves a stream that Recurs from prev forward by k more times
// the repetitions it made since prev.
func (s *SeqStream) Advance(prev *SeqStream, k int) {
	s.rep += k * (s.rep - prev.rep)
	s.pos += k * (s.pos - prev.pos)
}

// appendTo appends every instruction s yields to out, reading a copy of
// s, and returns the extended slice.
func (s SeqStream) appendTo(out []Inst) []Inst {
	for {
		if a := s.Ahead(); len(a) > 0 {
			out = append(out, a...)
			s.Skip(len(a))
			continue
		}
		in, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, in)
	}
}

// Drain returns every instruction s yields. Intended for tests; s is
// passed by value, so the caller's stream does not move.
func Drain(s SeqStream) []Inst { return s.appendTo(nil) }

// CountUOps returns the total micro-ops s yields. Intended for tests.
func CountUOps(s SeqStream) int {
	n := 0
	for in, ok := s.Next(); ok; in, ok = s.Next() {
		n += int(in.UOps)
	}
	return n
}
