package backend

// Recurs reports whether q, a copy of prev some cycles later, holds the
// same ring read from its head: the same buffered micro-ops and, behind
// them, the same dead slots.
func (q *IDQ) Recurs(prev *IDQ) bool {
	if q.n != prev.n || q.size != prev.size {
		return false
	}
	for i := range idqSlots {
		if q.buf[(q.head+i)&(idqSlots-1)] != prev.buf[(prev.head+i)&(idqSlots-1)] {
			return false
		}
	}
	return true
}

// Advance moves a queue that Recurs from prev forward by k more
// repetitions of the change since prev: the head moves k more times as
// far, and the ring's contents turn with it.
func (q *IDQ) Advance(prev *IDQ, k uint64) {
	step := uint64((q.head - prev.head) & (idqSlots - 1))
	head := int((uint64(q.head) + k*step) & (idqSlots - 1))
	for i := range idqSlots {
		q.buf[(head+i)&(idqSlots-1)] = prev.buf[(prev.head+i)&(idqSlots-1)]
	}
	q.head = head
}

// Advance moves b forward by k more repetitions of its change since
// prev, a copy taken cycles cycles earlier: the retire and port-conflict
// counts grow by k more times their growth, and the retire priority,
// which alternates every cycle, flips once per cycle.
func (b *Backend) Advance(prev *Backend, k, cycles uint64) {
	for t := range b.Retired {
		b.Retired[t] += k * (b.Retired[t] - prev.Retired[t])
	}
	b.PortConflicts += k * (b.PortConflicts - prev.PortConflicts)
	b.SkipIdle(k * cycles)
}
