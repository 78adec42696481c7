package backend

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// fill returns a real IDQ holding n single-micro-op instructions of
// kind k.
func fill(k isa.Kind, n int) IDQ {
	q := NewIDQ(n)
	for range n {
		q.Push(isa.Inst{Kind: k, UOps: 1, Len: 1})
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
	idq[0].Push(isa.Inst{Kind: isa.Load, UOps: 1, MemAddr: 0x1234})
	var seen []uint64
	b.Cycle(&idq, func(t int, in isa.Inst) { seen = append(seen, in.MemAddr) })
	if len(seen) != 1 || seen[0] != 0x1234 {
		t.Errorf("mem hook saw %v", seen)
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
			q.Push(isa.Inst{Addr: uint64(a), UOps: 1})
		}
		if q.Len() != len(addrs) {
			return false
		}
		for _, a := range addrs {
			in, ok := q.Pop()
			if !ok || in.Addr != uint64(a) {
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
