package backend

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/isa"
)

// fill returns a real IDQ holding n single-micro-op instructions of
// kind k.
func fill(k isa.Kind, n int) IDQ {
	q := NewIDQ(n)
	for range n {
		q.Push(&isa.Inst{Kind: k, UOps: 1, Len: 1})
	}
	return q
}

func TestRetireWidth(t *testing.T) {
	b := New(DefaultParams())
	var idq [2]IDQ
	idq[0] = fill(isa.Nop, 20)
	got := b.Cycle(&idq, nil)
	if got != 4 {
		t.Errorf("retired %d, want 4 (retire width)", got)
	}
}

// TestRetireCountsMicroOps retires instructions of several micro-ops:
// whole instructions retire while their micro-ops fit the width, the
// first of a cycle whatever its size, and Retired counts micro-ops.
func TestRetireCountsMicroOps(t *testing.T) {
	b := New(DefaultParams())
	var idq [2]IDQ
	idq[0] = NewIDQ(16)
	for range 4 {
		idq[0].Push(&isa.Inst{Kind: isa.Nop, UOps: 2, Len: 1})
	}
	idq[0].Push(&isa.Inst{Kind: isa.Nop, UOps: 6, Len: 1})
	idq[0].Push(&isa.Inst{Kind: isa.Nop, UOps: 1, Len: 1})
	for i, want := range []struct{ cycle, total uint64 }{{4, 4}, {4, 8}, {6, 14}, {1, 15}} {
		if got := b.Cycle(&idq, nil); uint64(got) != want.cycle || b.Retired[0] != want.total {
			t.Fatalf("cycle %d retired %d micro-ops, %d in all; want %d and %d", i, got, b.Retired[0], want.cycle, want.total)
		}
	}
}

func TestBothThreadsRetire(t *testing.T) {
	b := New(DefaultParams())
	var idq [2]IDQ
	idq[0] = fill(isa.Nop, 10)
	idq[1] = fill(isa.Nop, 10)
	got := b.Cycle(&idq, nil)
	if got != 8 {
		t.Errorf("retired %d, want 8 (4 per thread, nops use no ports)", got)
	}
}

func TestMixBlockAvoidsPortConflicts(t *testing.T) {
	// Section IV-D: 4 mov + 1 jmp must not contend. Over a full cycle, 4
	// movs fit ports {0,1,5,6}.
	b := New(DefaultParams())
	var idq [2]IDQ
	idq[0] = fill(isa.Mov, 4)
	b.Cycle(&idq, nil)
	if b.PortConflicts != 0 {
		t.Errorf("mix block movs caused %d port conflicts", b.PortConflicts)
	}
}

func TestStoreContention(t *testing.T) {
	// Two stores in one cycle contend for the single store port: the
	// backend must record a conflict — the behaviour the paper's mix
	// blocks are designed to avoid.
	b := New(DefaultParams())
	var idq [2]IDQ
	idq[0] = fill(isa.Store, 4)
	b.Cycle(&idq, nil)
	if b.PortConflicts == 0 {
		t.Error("back-to-back stores should conflict on port 4")
	}
}

func TestCrossThreadPortSharing(t *testing.T) {
	// Stores from both threads share the one store port.
	b := New(DefaultParams())
	var idq [2]IDQ
	idq[0] = fill(isa.Store, 1)
	idq[1] = fill(isa.Store, 1)
	b.Cycle(&idq, nil)
	if b.PortConflicts == 0 {
		t.Error("cross-thread store pressure should conflict")
	}
}

func TestMemHook(t *testing.T) {
	b := New(DefaultParams())
	var idq [2]IDQ
	idq[0] = NewIDQ(4)
	idq[0].Push(&isa.Inst{Kind: isa.Load, UOps: 1, MemAddr: 0x1234})
	idq[0].Push(&isa.Inst{Kind: isa.Mov, UOps: 1, MemAddr: 0x5678})
	var l1d cache.Cache
	b.Cycle(&idq, &l1d)
	if l1d.Stats().Accesses() != 1 || !l1d.Probe(0x1234) {
		t.Errorf("the L1D saw %+v; want the load's one access", l1d.Stats())
	}
}

func TestPriorityAlternates(t *testing.T) {
	b := New(DefaultParams())
	var idq [2]IDQ
	// One store each; only the first-considered thread wins the port.
	idq[0] = fill(isa.Store, 8)
	idq[1] = fill(isa.Store, 8)
	b.Cycle(&idq, nil)
	r0, r1 := b.Retired[0], b.Retired[1]
	b.Cycle(&idq, nil)
	// After two cycles priority alternated, so retirement evens out.
	d0, d1 := b.Retired[0]-r0, b.Retired[1]-r1
	if d0 == 0 || d1 == 0 {
		t.Errorf("alternating priority expected progress on both threads, got %d/%d", d0, d1)
	}
}

func TestRetireCountsPerThread(t *testing.T) {
	b := New(DefaultParams())
	var idq [2]IDQ
	idq[0] = fill(isa.Mov, 2)
	b.Cycle(&idq, nil)
	if b.Retired[0] != 2 || b.Retired[1] != 0 {
		t.Errorf("retired = %v", b.Retired)
	}
}

// TestIDQRingFIFO: the IDQ preserves order and never loses micro-ops.
func TestIDQRingFIFO(t *testing.T) {
	f := func(addrs []uint16) bool {
		if len(addrs) > 64 {
			addrs = addrs[:64]
		}
		q := NewIDQ(64)
		for _, a := range addrs {
			q.Push(&isa.Inst{MemAddr: uint64(a), UOps: 1})
		}
		if q.Len() != len(addrs) {
			return false
		}
		for _, a := range addrs {
			in, ok := q.Pop()
			if !ok || in.MemAddr != uint64(a) {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIDQRecursAndAdvance pins the steady-loop skip's queue helpers on
// a queue that pushes three micro-ops and pops three every period: the
// whole ring, read from the head, recurs each period, any changed slot
// or occupancy breaks the recurrence, and Advance turns the ring exactly
// as running the skipped periods would.
func TestIDQRecursAndAdvance(t *testing.T) {
	period := func(q *IDQ) {
		for i := range 3 {
			q.Push(&isa.Inst{MemAddr: uint64(0x40 + i), UOps: 1, Kind: isa.Mov})
		}
		q.Pop()
		q.Pop()
		q.Pop()
	}
	// Enough periods that every slot of the ring has been written.
	q := NewIDQ(8)
	q.Push(&isa.Inst{MemAddr: 1, UOps: 1, Kind: isa.Mov})
	for range 50 {
		period(&q)
	}
	prev := q
	period(&q)
	if !q.Recurs(&prev) {
		t.Fatal("the ring does not recur after one period")
	}
	for name, change := range map[string]func(x *IDQ){
		"occupancy":    func(x *IDQ) { x.size++ },
		"instructions": func(x *IDQ) { x.n++ },
		"live slot":    func(x *IDQ) { x.buf[x.head].MemAddr++ },
		"dead slot":    func(x *IDQ) { x.buf[(x.head+idqSlots-1)%idqSlots].MemAddr++ },
	} {
		x := q
		change(&x)
		if x.Recurs(&prev) {
			t.Errorf("%s: ring still recurs", name)
		}
	}
	want := q
	for range 7 {
		period(&want)
	}
	q.Advance(&prev, 7)
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("advanced ring %+v, stepping gives %+v", q, want)
	}
}

// TestBackendAdvance pins that Advance repeats a period's retirement:
// retire and port-conflict counts and the alternating priority end
// where running the periods does.
func TestBackendAdvance(t *testing.T) {
	var idq [2]IDQ
	idq[0], idq[1] = NewIDQ(64), NewIDQ(64)
	b := New(DefaultParams())
	cycles := uint64(0)
	period := func(b *Backend) {
		for range 7 {
			idq[0].Push(&isa.Inst{Kind: isa.Load, UOps: 1})
		}
		for idq[0].Len() > 0 {
			b.Cycle(&idq, nil)
			cycles++
		}
	}
	period(b)
	prev := *b
	cycles = 0
	period(b)
	per := cycles
	want := *b
	for range 4 {
		period(&want)
	}
	b.Advance(&prev, 4, per)
	if *b != want || b.PortConflicts == prev.PortConflicts || per&1 == 0 {
		t.Fatalf("advanced %+v, stepping gives %+v (period %d cycles)", *b, want, per)
	}
}

// TestIDQHoldsInstructionsOfManyMicroOps pushes a two-micro-op
// instruction and then a one-micro-op one: the queue holds three
// micro-ops and pops exactly those two instructions, in order.
func TestIDQHoldsInstructionsOfManyMicroOps(t *testing.T) {
	q := NewIDQ(8)
	a := isa.Inst{Addr: 0x100, Kind: isa.Add, UOps: 2, Len: 4}
	b := isa.Inst{Addr: 0x104, Kind: isa.Load, UOps: 1, Len: 1, MemAddr: 0x2000}
	q.Push(&a)
	q.Push(&b)
	if q.Len() != 3 || q.Free() != 5 {
		t.Fatalf("Len %d, Free %d after pushing 3 micro-ops into 8", q.Len(), q.Free())
	}
	var got []Entry
	for in, ok := q.Pop(); ok; in, ok = q.Pop() {
		got = append(got, in)
	}
	want := []Entry{{Kind: isa.Add, UOps: 2}, {Kind: isa.Load, UOps: 1, MemAddr: 0x2000}}
	if !reflect.DeepEqual(got, want) || q.Len() != 0 {
		t.Fatalf("popped %+v, %d micro-ops left; want the two pushed instructions", got, q.Len())
	}
}
