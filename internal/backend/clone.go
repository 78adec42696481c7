package backend

import "repro/internal/isa"

// Clone returns a deep copy of the execution engine's retirement state.
func (b *Backend) Clone() *Backend {
	c := *b
	return &c
}

// Clone returns a deep copy of the queue.
func (q *IDQ) Clone() IDQ {
	c := *q
	c.buf = append([]isa.Inst(nil), q.buf...)
	return c
}
