package attack

import (
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/clonecheck"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/runctx"
)

// TestCloneChannelSharesNoMutableState verifies, by reflection over the
// full object graphs, that every CloneChannel implementation copies all
// mutable state. Block layouts and flattened instruction slices are
// immutable after construction and deliberately shared; everything else
// aliased between original and clone would corrupt calibration replay.
func TestCloneChannelSharesNoMutableState(t *testing.T) {
	model := cpu.Gold6226()
	allow := clonecheck.AllowType(isa.Inst{}, isa.Block{})

	channels := []struct {
		name string
		ch   channel.BitChannel
	}{
		{"NonMT eviction", NewNonMT(DefaultNonMT(model, Eviction, false))},
		{"NonMT misalignment stealthy", NewNonMT(DefaultNonMT(model, Misalignment, true))},
		{"SlowSwitch", NewSlowSwitch(DefaultSlowSwitch(model))},
		{"MT eviction", NewMT(DefaultMT(model, Eviction))},
		{"Power eviction", NewPower(DefaultPower(model, Eviction))},
	}
	for _, tc := range channels {
		t.Run(tc.name, func(t *testing.T) {
			// Exercise the channel so lazily-grown state exists before the
			// snapshot, exactly as the calibration preamble does.
			tc.ch.SendBit('1')
			tc.ch.SendBit('0')
			clone := tc.ch.(channel.Cloneable).CloneChannel()
			if shared := clonecheck.Shared(tc.ch, clone, allow); len(shared) != 0 {
				t.Fatalf("CloneChannel shares mutable state:\n%v", shared)
			}
		})
	}
}

// TestConcurrentCloneChannelsDecodeAlike transmits through two
// CloneChannel copies of one calibrated MT eviction channel at once, as
// the sweep's calibration memo may, and requires each to decode exactly
// what a lone copy decodes. Under the race detector, any state the
// copies still share shows up as a race.
func TestConcurrentCloneChannelsDecodeAlike(t *testing.T) {
	m := cpu.Gold6226()
	cal, err := channel.NewCalibrationCtx(runctx.Background(), NewMT(DefaultMT(m, Eviction)), m.Name, 8)
	if err != nil {
		t.Fatal(err)
	}
	msg := channel.Alternating(testBits(24, 12))
	lone, err := cal.TransmitCtx(runctx.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]channel.Result, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = cal.TransmitCtx(runctx.Background(), msg)
		}()
	}
	wg.Wait()
	for i, r := range got {
		if r != lone {
			t.Fatalf("copy %d run beside another: %+v; a lone copy: %+v", i, r, lone)
		}
	}
}
