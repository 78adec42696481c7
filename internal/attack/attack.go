// Package attack implements the paper's covert-channel attacks on the
// simulated frontend: the eviction-based and misalignment-based channels
// in both multi-threaded (Sections V-A, V-B) and single-threaded
// (Sections V-C, V-D) settings, the LCP slow-switch channel (Section
// V-E), the power-based variants (Section VII), and the SGX variants
// whose sender runs inside an enclave (Section VIII).
//
// Every channel follows the paper's three-step protocol — Init sets the
// frontend path state, Encode perturbs it according to the secret bit,
// Decode measures — and satisfies channel.BitChannel so the shared
// transmission machinery computes rates and error rates exactly as the
// evaluation section does. Every channel runs on a rig (its core and
// bound run context) and otherwise holds only scalars and the flattened
// instruction loops it runs, which are never written: a copy of a
// channel is an assignment plus a copy of its core.
package attack

import (
	"fmt"
	"slices"

	"repro/internal/channel"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/runctx"
)

// Kind selects the frontend mechanism a channel modulates.
type Kind int

const (
	// Eviction channels force DSB set collisions (Section IV-F).
	Eviction Kind = iota
	// Misalignment channels force LSD collisions through half-window
	// offset instruction blocks (Section IV-G).
	Misalignment
)

// String names the kind as the paper's tables do.
func (k Kind) String() string {
	if k == Eviction {
		return "Eviction-Based"
	}
	return "Misalignment-Based"
}

// Paper-default protocol parameters (Sections V, VI-A, VI-C).
const (
	// DefaultD is the receiver way count d=6 for eviction channels.
	DefaultD = 6
	// DefaultMisalignD is d=5 for misalignment channels.
	DefaultMisalignD = 5
	// DefaultM is the total ways M=8 for misalignment channels.
	DefaultM = 8
	// DefaultP is p=q=10 iterations per bit for non-MT channels.
	DefaultP = 10
	// DefaultMeasurements is the timed decode passes the MT receiver
	// averages per bit (the paper's p/q = 10).
	DefaultMeasurements = 10
	// DefaultPowerIters is the per-bit iteration count of the power
	// channels' benchmark setting (half the paper's 240,000; see
	// PowerConfig.Iters).
	DefaultPowerIters = 120_000

	// evictionSet is a DSB set in the upper half of the index space:
	// a thread-0 receiver loses it on SMT repartitioning, which is what
	// the MT eviction channel needs (Section V-A).
	evictionSet = 20
	// misalignSet is in the lower half: the receiver keeps its lines
	// across repartitioning and only the LSD state changes, which is
	// what the MT misalignment channel needs (Section V-B).
	misalignSet = 5
	// altSet hosts the stealthy variant's bit-0 blocks (set y of
	// Section V-C).
	altSet = 13
	// pauseSetBase places protocol synchronization pads away from the
	// attack sets.
	pauseSetBase = 28
)

// rig is what every channel runs on: its simulated core and the run
// context a transmission binds.
type rig struct {
	core *cpu.Core
	rc   runctx.Ctx
}

// BindCtx implements channel.CtxAware: a bit sent while rc is cancelled
// runs nothing and measures 0, and the caller discards it.
func (r *rig) BindCtx(rc runctx.Ctx) { r.rc = rc }

// Cycles implements channel.BitChannel.
func (r *rig) Cycles() uint64 { return r.core.Cycle() }

// FreqGHz implements channel.BitChannel.
func (r *rig) FreqGHz() float64 { return r.core.Model.FreqGHz }

// copied returns a rig on a copy of r's core with no run context bound.
// It is all of a channel that CloneChannel copies beyond an assignment
// (channel.Cloneable): a copy replays exactly the measurements the
// original would make, and the loops both run are never written.
func (r *rig) copied() rig { return rig{core: r.core.Clone()} }

// CloneChannel implements channel.Cloneable.
func (a *NonMT) CloneChannel() channel.BitChannel {
	c := *a
	c.rig = a.copied()
	return &c
}

// CloneChannel implements channel.Cloneable.
func (a *SlowSwitch) CloneChannel() channel.BitChannel {
	c := *a
	c.rig = a.copied()
	return &c
}

// CloneChannel implements channel.Cloneable.
func (a *Power) CloneChannel() channel.BitChannel {
	c := *a
	c.rig = a.copied()
	return &c
}

// CloneChannel implements channel.Cloneable.
func (a *MT) CloneChannel() channel.BitChannel {
	c := *a
	c.rig = a.copied()
	return &c
}

// CloneChannel implements channel.Cloneable.
func (a *SGXNonMT) CloneChannel() channel.BitChannel {
	c := *a
	c.rig = a.copied()
	return &c
}

// CloneChannel implements channel.Cloneable.
func (a *SGXMT) CloneChannel() channel.BitChannel {
	c := *a
	c.rig = a.copied()
	return &c
}

// ways builds count mix blocks for ways from..from+count-1 of a DSB set,
// aligned or offset by half a window.
func ways(set, from, count int, aligned bool) []*isa.Block {
	blocks := make([]*isa.Block, count)
	for i := range blocks {
		if aligned {
			blocks[i] = isa.MixBlock(isa.AddrForSet(set, from+i))
		} else {
			blocks[i] = isa.MixBlock(isa.MisalignedAddrForSet(set, from+i))
		}
	}
	return blocks
}

// loop links groups of blocks into one closed loop — the last block of
// each group jumps to the first block of the next, and the final group
// jumps back to the very first block — and flattens it into the
// instructions a stream runs: a channel's per-iteration loop (init ->
// encode -> decode compressed into init/decode + encode, Section V-C).
func loop(groups ...[]*isa.Block) []isa.Inst {
	blocks := slices.Concat(groups...)
	isa.ChainLoop(blocks)
	return isa.Flatten(blocks)
}

func checkHT(m cpu.Model) {
	if !m.HyperThreading {
		panic(fmt.Sprintf("attack: %s has hyper-threading disabled; MT attacks are impossible (Table III)", m.Name))
	}
}
