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

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
)

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

// idqSlots is the size of an IDQ's ring: the next power of two above
// the 64 micro-ops every model's IDQ holds, which leaves a slot for every
// instruction such a queue admits, each of at least one micro-op, and
// makes the ring arithmetic a mask instead of a modulo.
const idqSlots = 128

// Entry is what an IDQ keeps of a delivered instruction: the fields
// retirement reads.
type Entry struct {
	MemAddr uint64 // the data address a Load or Store touches
	UOps    uint8
	Kind    isa.Kind
}

// IDQ is one hardware thread's Instruction Decode Queue: the micro-op
// buffer between frontend delivery and backend retirement (Figure 1).
// The frontend pushes into it and the backend pops from it; its length
// counts micro-ops, not instructions, and its ring holds one Entry per
// instruction. The ring is held inline, so an IDQ is a value.
type IDQ struct {
	buf      [idqSlots]Entry
	head     int
	n        int // instructions buffered
	size     int // their micro-ops
	capacity int // micro-ops the queue may hold
}

// NewIDQ builds an empty queue holding up to capacity micro-ops, fewer
// than the ring's 128 slots.
func NewIDQ(capacity int) IDQ {
	if capacity >= idqSlots {
		panic(fmt.Sprintf("backend: an IDQ of %d micro-ops overflows its %d-slot ring", capacity, idqSlots))
	}
	return IDQ{capacity: capacity}
}

// Len returns the micro-ops buffered.
func (q *IDQ) Len() int { return q.size }

// Free returns the micro-ops the queue can still accept.
func (q *IDQ) Free() int { return q.capacity - q.size }

// Push appends an instruction's micro-ops. The caller bounds pushes by
// Free.
func (q *IDQ) Push(in *isa.Inst) {
	q.buf[(q.head+q.n)&(idqSlots-1)] = Entry{MemAddr: in.MemAddr, UOps: in.UOps, Kind: in.Kind}
	q.n++
	q.size += int(in.UOps)
}

// Pop removes the oldest instruction's entry; ok is false when the
// queue is empty.
func (q *IDQ) Pop() (Entry, bool) {
	if q.n == 0 {
		return Entry{}, false
	}
	in := q.buf[q.head]
	q.head = (q.head + 1) & (idqSlots - 1)
	q.n--
	q.size -= int(in.UOps)
	return in, true
}

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
// first thread considered alternates each cycle. A thread retires whole
// instructions while their micro-ops fit the width; its first
// instruction of the cycle always retires, as in frontend delivery.
// Retiring loads and stores access l1d, unless it is nil. It returns the
// micro-ops retired this cycle.
func (b *Backend) Cycle(idq *[2]IDQ, l1d *cache.Cache) int {
	var portsBusy uint8
	total := 0
	first := b.prio
	b.prio = 1 - b.prio
	for i := 0; i < 2; i++ {
		t := first ^ i
		q := &idq[t]
		for n := 0; n < b.P.RetireWidth && q.n > 0; {
			uops := int(q.buf[q.head].UOps)
			if n > 0 && n+uops > b.P.RetireWidth {
				break
			}
			n += uops
			in, _ := q.Pop()
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
			b.Retired[t] += uint64(uops)
			total += uops
			if l1d != nil && (in.Kind == isa.Load || in.Kind == isa.Store) {
				l1d.Access(in.MemAddr)
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
