package branch

import "testing"

func TestColdBranchPredictsNotTaken(t *testing.T) {
	p := New()
	taken, _ := p.Predict(0x1000)
	if taken {
		t.Error("cold branch with no BTB entry should predict not-taken")
	}
}

func TestLearnsTakenLoop(t *testing.T) {
	p := New()
	// Resolve a loop back-edge a few times; it should become predicted.
	for i := 0; i < 4; i++ {
		p.Resolve(0x1000, true, 0x800)
	}
	taken, target := p.Predict(0x1000)
	if !taken || target != 0x800 {
		t.Errorf("trained loop branch predicted (%v, %#x), want (true, 0x800)", taken, target)
	}
}

func TestLoopExitMispredicts(t *testing.T) {
	p := New()
	for i := 0; i < 16; i++ {
		p.Resolve(0x1000, true, 0x800)
	}
	if !p.Resolve(0x1000, false, 0) {
		t.Error("loop exit after long training should mispredict")
	}
}

func TestTrainThenSpeculate(t *testing.T) {
	// The Spectre v1 pattern: train in-bounds (taken), then the
	// out-of-bounds resolution mispredicts.
	p := New()
	p.Train(0x2000, 0x2100, 32)
	taken, _ := p.Predict(0x2000)
	if !taken {
		t.Fatal("trained branch should predict taken")
	}
	if !p.Resolve(0x2000, false, 0) {
		t.Error("out-of-bounds access should mispredict after training")
	}
}

func TestAlternatingPatternLearnable(t *testing.T) {
	// With 8 bits of global history, a strict alternation becomes
	// predictable; a fresh random sequence stays near 50%.
	p := New()
	pc := uint64(0x3000)
	// Warm up.
	for i := 0; i < 64; i++ {
		p.Resolve(pc, i%2 == 0, 0x3100)
	}
	p.ResetStats()
	for i := 64; i < 256; i++ {
		p.Resolve(pc, i%2 == 0, 0x3100)
	}
	if r := p.Stats().MispredictRate(); r > 0.2 {
		t.Errorf("alternating pattern mispredict rate = %v, want < 0.2", r)
	}
}

func TestRandomPatternHard(t *testing.T) {
	p := New()
	pc := uint64(0x4000)
	// A fixed pseudo-random direction sequence.
	seq := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 64; i++ {
		p.Resolve(pc, (seq>>(uint(i)%64))&1 == 1, 0x4100)
	}
	p.ResetStats()
	mis := 0
	x := seq
	for i := 0; i < 512; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if p.Resolve(pc, x&1 == 1, 0x4100) {
			mis++
		}
	}
	rate := float64(mis) / 512
	if rate < 0.25 {
		t.Errorf("random pattern mispredict rate = %v, suspiciously low", rate)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := New()
	p.Resolve(0x1000, true, 0x800)
	p.Resolve(0x1000, true, 0x800)
	s := p.Stats()
	if s.Lookups != 2 {
		t.Errorf("lookups = %d, want 2", s.Lookups)
	}
	p.ResetStats()
	if p.Stats().Lookups != 0 {
		t.Error("ResetStats did not clear lookups")
	}
	// Learned state must survive ResetStats.
	taken, _ := p.Predict(0x1000)
	if !taken {
		t.Error("ResetStats cleared learned state")
	}
}

func TestMispredictRateEmpty(t *testing.T) {
	var s Stats
	if s.MispredictRate() != 0 {
		t.Error("empty stats should have 0 rate")
	}
}

func TestTargetMismatchIsMispredict(t *testing.T) {
	p := New()
	for i := 0; i < 4; i++ {
		p.Resolve(0x5000, true, 0x6000)
	}
	// Same direction, different target: still a redirect.
	if !p.Resolve(0x5000, true, 0x7000) {
		t.Error("target change should count as mispredict")
	}
}

// TestRecursAndAdvance pins the steady-loop skip's predictor helpers on
// two taken branches that share a BTB entry, so each mispredicts every
// period: the tables recur, any changed history, counter or target
// breaks the recurrence, and Advance lands where resolving the branches
// does.
func TestRecursAndAdvance(t *testing.T) {
	p := New()
	a := uint64(0x41_8040)
	b := a + 1
	for p.btbIndex(b) != p.btbIndex(a) {
		b++
	}
	period := func(p *Predictor) {
		p.Resolve(a, true, 0x41_9000)
		p.Resolve(b, true, 0x41_a000)
	}
	for range 10 {
		period(p)
	}
	prev := *p
	period(p)
	if !p.Recurs(&prev) || p.stats.Mispredicts-prev.stats.Mispredicts != 2 {
		t.Fatalf("recurs %v, %d mispredicts per period", p.Recurs(&prev), p.stats.Mispredicts-prev.stats.Mispredicts)
	}
	for name, change := range map[string]func(x *Predictor){
		"history": func(x *Predictor) { x.ghr ^= 1 },
		"counter": func(x *Predictor) { x.pht[7]-- },
		"target":  func(x *Predictor) { x.btb[x.btbIndex(a)].target++ },
	} {
		x := *p
		change(&x)
		if x.Recurs(&prev) {
			t.Errorf("%s: still recurs", name)
		}
	}
	want := *p
	for range 5 {
		period(&want)
	}
	p.Advance(&prev, 5)
	if *p != want {
		t.Fatalf("advanced stats %+v, resolving gives %+v", p.stats, want.stats)
	}
}
