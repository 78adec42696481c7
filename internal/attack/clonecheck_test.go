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

// everyChannel builds one channel of each of the six types: the MT and
// non-MT timing channels, slow-switch, power and the two SGX channels,
// the power channel with iters iterations a bit.
func everyChannel(iters int) []struct {
	name string
	ch   channel.Cloneable
} {
	m, enclave := cpu.Gold6226(), cpu.XeonE2174G()
	power := DefaultPower(m, Eviction)
	power.Iters = iters
	return []struct {
		name string
		ch   channel.Cloneable
	}{
		{"NonMT eviction", NewNonMT(DefaultNonMT(m, Eviction, false))},
		{"NonMT misalignment stealthy", NewNonMT(DefaultNonMT(m, Misalignment, true))},
		{"SlowSwitch", NewSlowSwitch(DefaultSlowSwitch(m))},
		{"MT eviction", NewMT(DefaultMT(m, Eviction))},
		{"Power eviction", NewPower(power)},
		{"SGX NonMT eviction", NewSGXNonMT(DefaultNonMT(enclave, Eviction, false))},
		{"SGX MT eviction", NewSGXMT(DefaultMT(enclave, Eviction))},
	}
}

// TestCloneChannelSharesNoMutableState verifies, by reflection over the
// full object graphs, that every CloneChannel implementation copies all
// mutable state. Flattened instruction slices are immutable after
// construction and deliberately shared; everything else aliased between
// original and clone would corrupt calibration replay.
func TestCloneChannelSharesNoMutableState(t *testing.T) {
	for _, tc := range everyChannel(DefaultPowerIters) {
		t.Run(tc.name, func(t *testing.T) {
			// Exercise the channel so lazily-grown state exists before the
			// snapshot, exactly as the calibration preamble does.
			tc.ch.SendBit('1')
			tc.ch.SendBit('0')
			clone := tc.ch.CloneChannel()
			if shared := clonecheck.Shared(tc.ch, clone, clonecheck.AllowType(isa.Inst{})); len(shared) != 0 {
				t.Fatalf("CloneChannel shares mutable state:\n%v", shared)
			}
		})
	}
}

// TestConcurrentCloneChannelsDecodeAlike transmits through two
// CloneChannel copies of one calibrated channel of each type at once, as
// the sweep's calibration memo may, and requires each to decode exactly
// what a lone copy decodes. Under the race detector, any state the
// copies still share shows up as a race.
func TestConcurrentCloneChannelsDecodeAlike(t *testing.T) {
	msg := channel.Alternating(testBits(24, 12))
	for _, tc := range everyChannel(200) {
		t.Run(tc.name, func(t *testing.T) {
			cal, err := channel.NewCalibrationCtx(runctx.Background(), tc.ch, "model", 8)
			if err != nil {
				t.Fatal(err)
			}
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
		})
	}
}
