package frontend

// switchBuffer remembers recent DSB<->MITE transition points. A stable
// code layout (the paper's "ordered issue", Section IV-H) transitions at
// the same few addresses every iteration; those entries saturate and the
// switch penalty amortizes away. An alternating layout ("mixed issue")
// generates more transition points than the buffer holds, so every switch
// pays the full penalty — the mechanism behind Figure 4's switch-penalty
// asymmetry and the slow-switch covert channel (Section V-E). The buffer
// holds its entries inline, and the zero buffer is empty.
type switchBuffer struct {
	addrs  [switchEntries]uint64
	counts [switchEntries]uint8
	stats  SwitchStats
}

const (
	// switchEntries is the buffer's size in transition points.
	switchEntries = 8
	// switchLearned is how many occurrences make a transition point free.
	switchLearned = 2
)

// SwitchStats counts switch-buffer events since construction or reset.
// The leakage fuzzer folds these into its coverage features, and the
// contract records their per-window deltas as observables.
type SwitchStats struct {
	Hits      uint64 // transition at a learned entry (residual penalty)
	Learns    uint64 // repeat occurrence still below the learned threshold
	Conflicts uint64 // entry evicted by a colliding address
	Inserts   uint64 // new transition point recorded (cold or conflict)
}

// cost reports whether the transition at addr is learned (the caller
// charges only the residual penalty) and records the occurrence.
// Direct-mapped by address; a conflicting address evicts the previous
// entry, which is what defeats learning for dense transition patterns.
func (b *switchBuffer) cost(addr uint64) bool {
	i := int(addr>>1) % switchEntries
	if b.addrs[i] == addr {
		if b.counts[i] >= switchLearned {
			b.stats.Hits++
			return true // learned: caller charges only the residual
		}
		b.stats.Learns++
		b.counts[i]++
		return false
	}
	if b.addrs[i] != 0 {
		b.stats.Conflicts++
	}
	b.stats.Inserts++
	b.addrs[i] = addr
	b.counts[i] = 1
	return false
}

// reset forgets all transition points and clears the statistics.
func (b *switchBuffer) reset() { *b = switchBuffer{} }
