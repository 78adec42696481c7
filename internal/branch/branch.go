// Package branch implements the branch prediction unit (BPU) that sits at
// the top of the frontend (Figure 1). The predictor matters to the
// reproduction in three places: loop exits flush the LSD (Section IV-A),
// Spectre v1 relies on training a conditional branch to speculate past a
// bounds check (Section IX), and the message-pattern effects of Table II
// (random messages transmit slower and noisier than regular ones) emerge
// from the sender's encode branches mispredicting.
package branch

// predictor table geometry; sized like a small gshare front-end predictor.
const (
	btbEntries   = 512
	phtEntries   = 4096
	historyBits  = 8
	counterTaken = 2 // 2-bit counter threshold for predicting taken
)

// Stats counts predictor events.
type Stats struct {
	Lookups     uint64
	Mispredicts uint64
}

// MispredictRate returns mispredicts/lookups, or 0 with no lookups.
func (s Stats) MispredictRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Lookups)
}

// Predictor is a gshare-style direction predictor with a direct-mapped
// BTB for targets. Each hardware thread owns one Predictor (the paper's
// machines tag or duplicate predictor state per thread; cross-thread BPU
// attacks are out of scope for this reproduction).
type Predictor struct {
	pht   [phtEntries]uint8 // 2-bit saturating counters
	btb   [btbEntries]btbEntry
	ghr   uint64
	stats Stats
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// New returns a predictor with weakly-taken counters, which matches the
// behaviour the paper's loop chains rely on (first-sight taken jumps are
// mostly predicted correctly after one iteration).
func New() *Predictor {
	p := &Predictor{}
	for i := range p.pht {
		p.pht[i] = counterTaken // weakly taken
	}
	return p
}

func (p *Predictor) phtIndex(pc uint64) int {
	return int((fold(pc) ^ (p.ghr << 2)) % phtEntries)
}

// fold mixes the high PC bits into the index so that code laid out at
// large power-of-two strides (the paper's 1024-byte way stride) does not
// alias in the tables.
func fold(pc uint64) uint64 { return pc ^ pc>>9 ^ pc>>18 }

func (p *Predictor) btbIndex(pc uint64) int { return int(fold(pc) % btbEntries) }

// Predict returns the predicted direction and target for the branch at pc.
// A missing BTB entry predicts not-taken with an unknown target.
func (p *Predictor) Predict(pc uint64) (taken bool, target uint64) {
	e := &p.btb[p.btbIndex(pc)]
	if !e.valid || e.tag != pc {
		return false, 0
	}
	return p.pht[p.phtIndex(pc)] >= counterTaken, e.target
}

// Resolve records the actual outcome of the branch at pc and reports
// whether the earlier prediction was wrong (a mispredict, which costs the
// frontend a redirect).
func (p *Predictor) Resolve(pc uint64, taken bool, target uint64) bool {
	p.stats.Lookups++
	predTaken, predTarget := p.Predict(pc)
	misp := predTaken != taken || (taken && predTarget != target)

	// Update PHT.
	idx := p.phtIndex(pc)
	if taken {
		if p.pht[idx] < 3 {
			p.pht[idx]++
		}
	} else if p.pht[idx] > 0 {
		p.pht[idx]--
	}
	// Update BTB.
	if taken {
		p.btb[p.btbIndex(pc)] = btbEntry{tag: pc, target: target, valid: true}
	}
	// Update global history.
	p.ghr = (p.ghr << 1) & ((1 << historyBits) - 1)
	if taken {
		p.ghr |= 1
	}
	if misp {
		p.stats.Mispredicts++
	}
	return misp
}

// Train performs repeated Resolve calls for a taken branch, the Spectre
// training loop primitive.
func (p *Predictor) Train(pc uint64, target uint64, times int) {
	for i := 0; i < times; i++ {
		p.Resolve(pc, true, target)
	}
}

// Stats returns the predictor counters.
func (p *Predictor) Stats() Stats { return p.stats }

// ResetStats clears the counters without clearing learned state.
func (p *Predictor) ResetStats() { p.stats = Stats{} }

// Recurs reports whether p, a copy of prev some branches later, has
// prev's counters, targets and history: every later prediction is then
// the one prev would make.
func (p *Predictor) Recurs(prev *Predictor) bool {
	return p.ghr == prev.ghr && p.pht == prev.pht && p.btb == prev.btb
}

// Advance moves a predictor that Recurs from prev forward by k more
// repetitions of the branches since prev: only the statistics move.
func (p *Predictor) Advance(prev *Predictor, k uint64) {
	p.stats.Lookups += k * (p.stats.Lookups - prev.stats.Lookups)
	p.stats.Mispredicts += k * (p.stats.Mispredicts - prev.stats.Mispredicts)
}
