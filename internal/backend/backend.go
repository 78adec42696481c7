// Package backend models the execution engine behind the IDQ: an 8-port
// Skylake-style scheduler with a 4-wide rename/retire pipe (Figure 1).
//
// The paper deliberately constructs its instruction mix blocks to avoid
// backend bottlenecks — "4 mov plus 1 jmp ... exploit the ports as much
// as possible ... avoiding load, store, or more complex instructions"
// (Section IV-D) — so the backend's job in this reproduction is to retire
// fast enough that the frontend is the bottleneck, while still enforcing
// port constraints so that a *wrong* instruction mix would contend, as
// the paper warns.
package backend

import "repro/internal/isa"

// Params configures the execution engine.
type Params struct {
	// RetireWidth is micro-ops renamed/retired per thread per cycle.
	RetireWidth int
	// Ports is the number of execution ports (8 on the paper's parts).
	Ports int
}

// DefaultParams returns the Skylake-family configuration.
func DefaultParams() Params { return Params{RetireWidth: 4, Ports: 8} }

// portMask returns the set of ports an instruction kind can issue to,
// as a bitmask over ports 0..7 (Skylake port bindings).
func portMask(k isa.Kind) uint8 {
	switch k {
	case isa.Mov, isa.Add, isa.AddLCP:
		return 1<<0 | 1<<1 | 1<<5 | 1<<6 // ALU ports
	case isa.Jmp:
		return 1<<0 | 1<<6 // branch ports
	case isa.Load:
		return 1<<2 | 1<<3 // load AGUs
	case isa.Store:
		return 1 << 4 // store data
	case isa.Nop:
		return 0 // retires without an execution port
	default:
		return 1<<0 | 1<<1
	}
}

// IDQ is one hardware thread's Instruction Decode Queue: the micro-op
// buffer between frontend delivery and backend retirement (Figure 1).
// The frontend pushes into it and the backend pops from it; its length
// counts micro-ops, not instructions. The buffer is sized to the next
// power of two above the capacity so the ring arithmetic is a mask
// instead of a modulo.
type IDQ struct {
	buf      []isa.Inst
	mask     int
	head     int
	size     int // micro-ops buffered
	capacity int // micro-ops the queue may hold
}

// NewIDQ builds an empty queue holding up to capacity micro-ops.
func NewIDQ(capacity int) IDQ {
	n := 1
	for n <= capacity {
		n <<= 1
	}
	return IDQ{buf: make([]isa.Inst, n), mask: n - 1, capacity: capacity}
}

// Len returns the micro-ops buffered.
func (q *IDQ) Len() int { return q.size }

// Free returns the micro-ops the queue can still accept.
func (q *IDQ) Free() int { return q.capacity - q.size }

// Push appends an instruction's micro-ops. The caller bounds pushes by
// Free.
func (q *IDQ) Push(in isa.Inst) {
	i := (q.head + q.size) & q.mask
	q.buf[i] = in
	q.size += int(in.UOps)
}

// Pop removes the oldest instruction; ok is false when the queue is
// empty.
func (q *IDQ) Pop() (isa.Inst, bool) {
	if q.size == 0 {
		return isa.Inst{}, false
	}
	in := q.buf[q.head]
	q.head = (q.head + 1) & q.mask
	q.size -= int(in.UOps)
	return in, true
}

// MemHook observes retiring memory micro-ops (the CPU core wires this to
// the L1D cache so loads/stores generate data traffic).
type MemHook func(t int, in isa.Inst)

// Backend retires micro-ops against shared execution ports.
type Backend struct {
	P       Params
	Retired [2]uint64
	// PortConflicts counts micro-ops that had to wait a cycle because
	// every port in their mask was busy.
	PortConflicts uint64

	prio int // alternating thread priority
}

// New builds a backend.
func New(p Params) *Backend { return &Backend{P: p} }

// Cycle retires up to RetireWidth micro-ops per thread from the two
// threads' IDQs, sharing the execution ports between the threads; the
// first thread considered alternates each cycle. It returns the total
// retired this cycle.
func (b *Backend) Cycle(idq *[2]IDQ, mem MemHook) int {
	var portsBusy uint8
	total := 0
	first := b.prio
	b.prio = 1 - b.prio
	for i := 0; i < 2; i++ {
		t := first ^ i
		q := &idq[t]
		for n := 0; n < b.P.RetireWidth; n++ {
			// Pop-and-check: the failed pop doubles as the empty-queue
			// test.
			in, ok := q.Pop()
			if !ok {
				break
			}
			mask := portMask(in.Kind)
			conflict := false
			if mask != 0 {
				free := mask &^ portsBusy
				if free == 0 {
					// Head-of-line blocked on ports this cycle: the
					// micro-op slips one cycle and this thread stops
					// retiring.
					b.PortConflicts++
					conflict = true
				} else {
					portsBusy |= free & (-free) // claim lowest free port
				}
			}
			b.Retired[t]++
			total++
			if mem != nil && (in.Kind == isa.Load || in.Kind == isa.Store) {
				mem(t, in)
			}
			if conflict {
				break
			}
		}
	}
	return total
}

// SkipIdle accounts for k cycles on which both IDQs are empty: such a
// cycle retires nothing and only flips the alternating priority, so k
// of them flip it by the parity of k. Every other cycle flips it too,
// which Advance relies on.
func (b *Backend) SkipIdle(k uint64) {
	if k&1 == 1 {
		b.prio = 1 - b.prio
	}
}
