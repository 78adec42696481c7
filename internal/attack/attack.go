// Package attack implements the paper's covert-channel attacks on the
// simulated frontend: the eviction-based and misalignment-based channels
// in both multi-threaded (Sections V-A, V-B) and single-threaded
// (Sections V-C, V-D) settings, the LCP slow-switch channel (Section
// V-E), and the power-based variants (Section VII).
//
// Every channel follows the paper's three-step protocol — Init sets the
// frontend path state, Encode perturbs it according to the secret bit,
// Decode measures — and satisfies channel.BitChannel so the shared
// transmission machinery computes rates and error rates exactly as the
// evaluation section does.
package attack

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
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

// receiverBlocks builds the receiver's d aligned mix blocks for a set.
func receiverBlocks(set, d int) []*isa.Block {
	blocks := make([]*isa.Block, d)
	for w := 0; w < d; w++ {
		blocks[w] = isa.MixBlock(isa.AddrForSet(set, w))
	}
	return blocks
}

// senderBlocks builds the sender's blocks for ways d..d+count-1.
func senderBlocks(set, d, count int, aligned bool) []*isa.Block {
	blocks := make([]*isa.Block, count)
	for i := 0; i < count; i++ {
		if aligned {
			blocks[i] = isa.MixBlock(isa.AddrForSet(set, d+i))
		} else {
			blocks[i] = isa.MixBlock(isa.MisalignedAddrForSet(set, d+i))
		}
	}
	return blocks
}

// chain links a sequence of block groups into one closed loop: the last
// block of each group jumps to the first block of the next, and the final
// group jumps back to the very first block. The result is the grand
// per-iteration loop of the non-MT channels (init -> encode -> decode
// compressed into init/decode + encode, Section V-C).
func chain(groups ...[]*isa.Block) []*isa.Block {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	all := make([]*isa.Block, 0, n)
	for _, g := range groups {
		all = append(all, g...)
	}
	if len(all) == 0 {
		return nil
	}
	isa.ChainLoop(all)
	return all
}

func checkHT(m cpu.Model) {
	if !m.HyperThreading {
		panic(fmt.Sprintf("attack: %s has hyper-threading disabled; MT attacks are impossible (Table III)", m.Name))
	}
}
