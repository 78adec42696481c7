package frontend

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// TestDSBOccupancyInvariant: under arbitrary fill/partition sequences, no
// set ever exceeds its 8 ways of line capacity.
func TestDSBOccupancyInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDSB(DefaultParams())
		for _, op := range ops {
			tid := int(op>>15) & 1
			set := int(op>>10) & 31
			way := int(op>>5) & 31
			uops := int(op&15) + 1
			switch op % 7 {
			case 6:
				d.SetPartitioned(!d.Partitioned())
			default:
				d.Fill(tid, windowForSet(set, way), uops)
			}
			// Invariant: every set's line occupancy within capacity.
			for s := 0; s < 32; s++ {
				if got := d.OccupiedLines(0, windowForSet(s, 0)); got > 8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDSBLookupAfterFill: a filled, cacheable window is always resident
// immediately after its fill (no self-eviction).
func TestDSBLookupAfterFill(t *testing.T) {
	f := func(set, way, uops uint8) bool {
		d := NewDSB(DefaultParams())
		s := int(set) % 32
		w := int(way) % 16
		u := int(uops)%18 + 1
		d.Fill(0, windowForSet(s, w), u)
		return d.Contains(0, windowForSet(s, w))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDeliveryConservation: every micro-op fetched is either in the IDQ
// or has been popped — none are lost or duplicated across arbitrary
// delivery/drain interleavings.
func TestDeliveryConservation(t *testing.T) {
	f := func(seed uint8, iters uint8) bool {
		fe := newFEquick(true)
		n := int(iters)%20 + 2
		blocks := isa.MixChain(int(seed)%32, 4, true)
		fe.SetStream(0, isa.NewLoopStream(blocks, n))
		popped := 0
		step := 0
		for !fe.StreamDone(0) || fe.IDQLen(0) > 0 {
			fe.DeliverCycle(0)
			// Irregular drain pattern derived from the seed.
			drain := int(seed>>(uint(step)%3)) % 3
			for i := 0; i <= drain; i++ {
				if _, ok := fe.PopUOp(0); ok {
					popped++
				}
			}
			step++
			if step > 200000 {
				return false
			}
		}
		return popped == n*4*5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func newFEquick(lsd bool) *Frontend { return newFE(lsd) }
