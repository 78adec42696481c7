package isa

import "slices"

// Stream is a dynamic instruction stream: the sequence of instruction
// instances a hardware thread executes, in program order. The frontend
// simulator pulls from a Stream as it fetches.
type Stream interface {
	// Next returns the next dynamic instruction, or ok=false when the
	// stream is exhausted.
	Next() (Inst, bool)
}

// LoopStream yields the instructions of a chained block sequence a fixed
// number of iterations. Every terminating jmp is taken except the final
// jmp of the final iteration, which is not taken (the loop exits), exactly
// the branch pattern that ends LSD streaming in the paper (Section IV).
type LoopStream struct {
	flat  []Inst
	iters int
	pos   int
	iter  int
}

// NewLoopStream builds a stream that executes the blocks in order, iters
// times. It panics if blocks is empty or iters < 1.
func NewLoopStream(blocks []*Block, iters int) *LoopStream {
	if len(blocks) == 0 {
		panic("isa: NewLoopStream with no blocks")
	}
	return NewFlatLoopStream(Flatten(blocks), iters)
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

// NewFlatLoopStream is NewLoopStream over a pre-flattened instruction
// sequence. The stream reads flat but never writes it (the final
// back-edge's Taken flip happens on a copy), so one flattened layout can
// back any number of streams, sequentially or concurrently.
func NewFlatLoopStream(flat []Inst, iters int) *LoopStream {
	if len(flat) == 0 {
		panic("isa: NewFlatLoopStream with no instructions")
	}
	if iters < 1 {
		panic("isa: NewFlatLoopStream with iters < 1")
	}
	return &LoopStream{flat: flat, iters: iters}
}

// Next implements Stream.
func (s *LoopStream) Next() (Inst, bool) {
	if s.iter >= s.iters {
		return Inst{}, false
	}
	in := s.flat[s.pos]
	s.pos++
	if s.pos == len(s.flat) {
		s.pos = 0
		s.iter++
		if s.iter == s.iters && in.Kind == Jmp {
			// Loop exit: final back-edge not taken.
			in.Taken = false
		}
	}
	return in, true
}

// Ahead returns the instructions Next yields next, up to but not
// including the current iteration's back-edge, without consuming them.
// The view is the program itself: read it, do not write or keep it.
// Ending it before the back-edge leaves the loop exit's Taken flip and
// the iteration count to Next. Skip consumes a prefix of the view.
func (s *LoopStream) Ahead() []Inst {
	if s.iter >= s.iters {
		return nil
	}
	return s.flat[s.pos : len(s.flat)-1]
}

// Skip consumes the first k instructions of Ahead's view, k at most its
// length, as k calls of Next would.
func (s *LoopStream) Skip(k int) { s.pos += k }

// ExitBody returns the body a loop over flat runs on its last
// iteration: a copy of flat whose final jmp, the back-edge, is not
// taken.
func ExitBody(flat []Inst) []Inst {
	exit := slices.Clone(flat)
	if last := &exit[len(exit)-1]; last.Kind == Jmp {
		last.Taken = false
	}
	return exit
}

// LoopProgram returns the program a LoopStream over flat yields in iters
// iterations, iters at least 1: flat iters-1 times, then exit, which is
// ExitBody(flat), once.
func LoopProgram(flat, exit []Inst, iters int) Program {
	return Program{{Body: flat, Count: iters - 1}, {Body: exit, Count: 1}}
}

// Piece is a stretch of a program: Body, yielded Count times over.
// Count is at least 0.
type Piece struct {
	Body  []Inst
	Count int
}

// Program is a dynamic instruction sequence written as pieces, yielded
// in order, each exactly as written. A loop is two pieces
// (LoopProgram), so a program of loops is never written out
// instruction by instruction. Its bodies are read, never written, so
// one body can back any number of programs and streams.
type Program []Piece

// Len returns how many instructions the program yields.
func (p Program) Len() int {
	n := 0
	for _, pc := range p {
		n += len(pc.Body) * pc.Count
	}
	return n
}

// Insts writes the program out: every instruction it yields, in order.
func (p Program) Insts() []Inst {
	out := make([]Inst, 0, p.Len())
	for _, pc := range p {
		for range pc.Count {
			out = append(out, pc.Body...)
		}
	}
	return out
}

// Equal reports whether p and q yield the same instructions. It walks
// the two in lockstep, a stretch of bodies at a time; stretches of the
// same body compare without reading it.
func (p Program) Equal(q Program) bool {
	a, b := SeqStream{prog: p}, SeqStream{prog: q}
	a.seek()
	b.seek()
	for {
		x, y := a.Ahead(), b.Ahead()
		n := min(len(x), len(y))
		if n == 0 {
			return len(x) == len(y)
		}
		if &x[0] != &y[0] && !slices.Equal(x[:n], y[:n]) {
			return false
		}
		a.Skip(n)
		b.Skip(n)
	}
}

// Stream returns a stream that yields the program once.
func (p Program) Stream() *SeqStream {
	s := &SeqStream{prog: p}
	s.seek()
	return s
}

// SeqStream yields a program once, piece after piece.
type SeqStream struct {
	prog Program
	next int    // the piece after the current one
	body []Inst // the current piece's body; empty once the stream is exhausted
	left int    // repetitions of body still to come after the current one
	off  int    // instructions of the current repetition yielded
	pos  int    // instructions yielded in all
}

// NewSeqStream wraps insts in a Stream: the program of one piece,
// yielded once.
func NewSeqStream(insts []Inst) *SeqStream { return &SeqStream{body: insts} }

// Next implements Stream.
func (s *SeqStream) Next() (Inst, bool) {
	if s.off >= len(s.body) {
		return Inst{}, false
	}
	in := s.body[s.off]
	s.off++
	s.pos++
	if s.off == len(s.body) {
		s.turn()
	}
	return in, true
}

// turn moves past a finished repetition of the current body: to its
// next repetition, or to the first piece after it that yields anything.
func (s *SeqStream) turn() {
	s.off = 0
	if s.left > 0 {
		s.left--
		return
	}
	for s.next < len(s.prog) {
		pc := s.prog[s.next]
		s.next++
		if pc.Count > 0 && len(pc.Body) > 0 {
			s.body, s.left = pc.Body, pc.Count-1
			return
		}
	}
	s.body = nil
}

// seek places the stream pos instructions into its program, or past its
// end.
func (s *SeqStream) seek() {
	s.next, s.body, s.left, s.off = 0, nil, 0, 0
	rest := s.pos
	for s.next < len(s.prog) {
		pc := s.prog[s.next]
		s.next++
		n := len(pc.Body) * pc.Count
		if rest < n {
			s.body, s.left, s.off = pc.Body, pc.Count-1-rest/len(pc.Body), rest%len(pc.Body)
			return
		}
		rest -= n
	}
}

// Ahead returns the instructions Next yields next without consuming
// them: the rest of the current repetition of a piece's body. The view
// is the program itself: read it, do not write or keep it. Skip
// consumes a prefix of the view.
func (s *SeqStream) Ahead() []Inst { return s.body[s.off:] }

// Skip consumes the first k instructions of Ahead's view, k at most its
// length, as k calls of Next would.
func (s *SeqStream) Skip(k int) {
	s.off += k
	s.pos += k
	if s.off == len(s.body) {
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

// ConcatStream chains multiple streams end to end.
type ConcatStream struct {
	streams []Stream
	idx     int
}

// Concat returns a stream yielding each input stream in turn.
func Concat(streams ...Stream) *ConcatStream { return &ConcatStream{streams: streams} }

// Next implements Stream.
func (s *ConcatStream) Next() (Inst, bool) {
	for s.idx < len(s.streams) {
		if in, ok := s.streams[s.idx].Next(); ok {
			return in, true
		}
		s.idx++
	}
	return Inst{}, false
}

// CloneableStream is a Stream that can snapshot its position: the
// returned stream continues from exactly the same point, independently.
// A simulator holding a cloneable stream mid-delivery can therefore be
// deep-cloned and replayed byte-for-byte (the contract executor's
// mid-stream snapshots). All the package's data-backed streams implement
// it; FuncStream — an arbitrary generator whose state lives in the
// closure — cannot.
type CloneableStream interface {
	Stream
	// CloneStream returns an independent continuation of the stream.
	CloneStream() Stream
}

// CloneStream implements CloneableStream. The flat instruction slice is
// immutable and shared; the position is copied.
func (s *LoopStream) CloneStream() Stream {
	c := *s
	return &c
}

// Progress returns how many iterations the stream has started past,
// counting from zero, and how many it runs in all.
func (s *LoopStream) Progress() (iter, iters int) { return s.iter, s.iters }

// Recurs reports whether s, a copy of prev some whole iterations later,
// is at prev's position in the same loop.
func (s *LoopStream) Recurs(prev *LoopStream) bool {
	return s.pos == prev.pos && s.iters == prev.iters && s.iter > prev.iter &&
		len(s.flat) == len(prev.flat) && &s.flat[0] == &prev.flat[0]
}

// Advance moves a stream that Recurs from prev forward by k more times
// the iterations it ran since prev.
func (s *LoopStream) Advance(prev *LoopStream, k int) { s.iter += k * (s.iter - prev.iter) }

// CloneStream implements CloneableStream. The program is immutable and
// shared; the position is copied.
func (s *SeqStream) CloneStream() Stream {
	c := *s
	return &c
}

// CloneStream implements CloneableStream. Every sub-stream must itself
// be cloneable; CloneStream panics otherwise.
func (s *ConcatStream) CloneStream() Stream {
	c := &ConcatStream{streams: make([]Stream, len(s.streams)), idx: s.idx}
	for i, sub := range s.streams {
		cs, ok := sub.(CloneableStream)
		if !ok {
			panic("isa: ConcatStream.CloneStream over a non-cloneable sub-stream")
		}
		c.streams[i] = cs.CloneStream()
	}
	return c
}

// FuncStream adapts a generator function to the Stream interface. The
// victim workload generators use this to produce phase-dependent streams.
type FuncStream func() (Inst, bool)

// Next implements Stream.
func (f FuncStream) Next() (Inst, bool) { return f() }

// Drain returns every instruction a finite stream yields, drawn with
// Next. Intended for tests; it consumes the stream.
func Drain(s Stream) []Inst {
	var out []Inst
	for in, ok := s.Next(); ok; in, ok = s.Next() {
		out = append(out, in)
	}
	return out
}

// CountUOps drains a copy-free count of the total micro-ops a finite
// stream would deliver. Intended for tests; it consumes the stream.
func CountUOps(s Stream) int {
	n := 0
	for {
		in, ok := s.Next()
		if !ok {
			return n
		}
		n += int(in.UOps)
	}
}
