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

// Append appends the instructions the stream has left to dst and
// returns the extended slice, consuming the stream: exactly what draining
// it with Next would yield, loop back-edges resolved, but copied a whole
// loop body at a time. The contract executor and the leakage fuzzer
// materialize program phases this way.
func (s *LoopStream) Append(dst []Inst) []Inst {
	if s.iter >= s.iters {
		return dst
	}
	dst = slices.Grow(dst, len(s.flat)-s.pos+(s.iters-s.iter-1)*len(s.flat))
	dst = append(dst, s.flat[s.pos:]...)
	for s.iter++; s.iter < s.iters; s.iter++ {
		dst = append(dst, s.flat...)
	}
	s.pos = 0
	if last := &dst[len(dst)-1]; last.Kind == Jmp {
		last.Taken = false // loop exit: final back-edge not taken
	}
	return dst
}

// SeqStream yields a fixed instruction slice once.
type SeqStream struct {
	insts []Inst
	pos   int
}

// NewSeqStream wraps insts in a Stream.
func NewSeqStream(insts []Inst) *SeqStream { return &SeqStream{insts: insts} }

// Next implements Stream.
func (s *SeqStream) Next() (Inst, bool) {
	if s.pos >= len(s.insts) {
		return Inst{}, false
	}
	in := s.insts[s.pos]
	s.pos++
	return in, true
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

// CloneStream implements CloneableStream. The instruction slice is
// immutable and shared; the position is copied.
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
