package frontend

import (
	"math"
	"strings"
	"testing"

	"repro/internal/clonecheck"
	"repro/internal/isa"
)

// recurringFrontend runs blocks as a long loop on thread 0 of f with a
// 4-wide drain until LoopRecurs holds at an iteration boundary,
// comparing each snapshot over a window of iterations that doubles, as
// the core's detector does, and returns f and that snapshot.
func recurringFrontend(t *testing.T, f *Frontend, blocks []*isa.Block) (*Frontend, *LoopSnap) {
	t.Helper()
	f.SetStream(0, isa.NewLoopStream(blocks, 1<<20))
	loop := f.Stream(0)
	s := &LoopSnap{}
	armed, since, window, iter := false, 0, 1, 0
	for range 1_000_000 {
		f.DeliverCycle(0)
		for range 4 {
			f.PopUOp(0)
		}
		i, _ := loop.Progress()
		if i == iter {
			continue
		}
		iter = i
		if armed {
			if f.LoopRecurs(s) {
				return f, s
			}
			if since++; since < window {
				continue
			}
			window *= 2
		}
		f.Snapshot(s, [2]bool{true})
		armed, since = true, 0
	}
	t.Fatal("the loop never recurred")
	return nil, nil
}

// TestLoopRecursChecksEveryField takes a frontend in a recurring loop
// state and changes one piece of the state the loop reads at a time:
// each change must break the recurrence.
func TestLoopRecursChecksEveryField(t *testing.T) {
	locked, sl := recurringFrontend(t, newFE(true), isa.MixChain(3, 8, true))
	if !locked.lsd[0].Locked() {
		t.Fatal("8-block chain did not lock the LSD")
	}
	tracking, st := recurringFrontend(t, newFE(true), isa.MixChain(3, 9, true))
	if !tracking.lsd[0].tracking || tracking.lsd[0].Locked() {
		t.Fatal("9-block chain is not a tracked, unlocked candidate")
	}
	firstEntry := func(f *Frontend) *dsbEntry {
		if f.DSB.used[3] < 2 {
			t.Fatal("DSB set 3 holds fewer than two entries")
		}
		return &f.DSB.set(3)[0]
	}
	changes := map[string]func(f *Frontend, s *LoopSnap){
		"fetch instruction": func(f *Frontend, _ *LoopSnap) { f.thr[0].cur.Addr++ },
		"fetch loaded":      func(f *Frontend, _ *LoopSnap) { f.thr[0].hasCur = !f.thr[0].hasCur },
		"stall debt": func(f *Frontend, _ *LoopSnap) {
			f.thr[0].stall = math.Nextafter(f.thr[0].stall, math.Inf(1))
		},
		"last source":     func(f *Frontend, _ *LoopSnap) { f.thr[0].lastSrc = SrcMITE + SrcDSB - f.thr[0].lastSrc },
		"previous LCP":    func(f *Frontend, _ *LoopSnap) { f.thr[0].prevLCP = !f.thr[0].prevLCP },
		"fill active":     func(f *Frontend, _ *LoopSnap) { f.thr[0].fillActive = !f.thr[0].fillActive },
		"fill window":     func(f *Frontend, _ *LoopSnap) { f.thr[0].fillWindow++ },
		"fill micro-ops":  func(f *Frontend, _ *LoopSnap) { f.thr[0].fillUOps++ },
		"last fetch line": func(f *Frontend, _ *LoopSnap) { f.thr[0].lastFetchLine++ },
		"stream position": func(f *Frontend, _ *LoopSnap) { f.thr[0].stream.Next() },
		"stream ran out":  func(f *Frontend, _ *LoopSnap) { f.thr[0].live = false },
		"partitioning":    func(f *Frontend, _ *LoopSnap) { f.DSB.partitioned = !f.DSB.partitioned },
		"DSB window":      func(f *Frontend, _ *LoopSnap) { firstEntry(f).window++ },
		"DSB thread":      func(f *Frontend, _ *LoopSnap) { firstEntry(f).thread = 1 },
		"DSB lines":       func(f *Frontend, _ *LoopSnap) { firstEntry(f).lines++ },
		"DSB micro-ops":   func(f *Frontend, _ *LoopSnap) { firstEntry(f).uops++ },
		"DSB entry dropped": func(f *Frontend, _ *LoopSnap) {
			f.DSB.evict(3, 0)
		},
		"DSB entry count": func(f *Frontend, _ *LoopSnap) { f.DSB.used[3]-- },
		"DSB entries swapped": func(f *Frontend, _ *LoopSnap) {
			set := f.DSB.set(3)
			set[0], set[1] = set[1], set[0]
		},
		"LSD enabled":        func(f *Frontend, _ *LoopSnap) { f.lsd[0].enabled = false },
		"LSD head":           func(f *Frontend, _ *LoopSnap) { f.lsd[0].head++ },
		"LSD tracking":       func(f *Frontend, _ *LoopSnap) { f.lsd[0].tracking = !f.lsd[0].tracking },
		"LSD micro-ops":      func(f *Frontend, _ *LoopSnap) { f.lsd[0].uops++ },
		"LSD crossings":      func(f *Frontend, _ *LoopSnap) { f.lsd[0].crossings++ },
		"LSD last signature": func(f *Frontend, _ *LoopSnap) { f.lsd[0].lastSig.uops++ },
		"LSD locked":         func(f *Frontend, _ *LoopSnap) { f.lsd[0].locked = !f.lsd[0].locked },
		"LSD locked signature": func(f *Frontend, _ *LoopSnap) {
			f.lsd[0].lockedSig.uops++
		},
		"LSD windows": func(f *Frontend, _ *LoopSnap) { f.lsd[0].noteWindow(1) },
		"LSD locked windows": func(f *Frontend, _ *LoopSnap) {
			// One window more, or one fewer where the list is full.
			if l := &f.lsd[0]; l.nlocked < len(l.lockedWindows) {
				l.lockedWindows[l.nlocked] = 1
				l.nlocked++
			} else {
				l.nlocked--
			}
		},
		"LSD stability reset": func(f *Frontend, _ *LoopSnap) { f.lsd[0].stable = 0 },
		"LSD stability grew below the threshold": func(f *Frontend, s *LoopSnap) {
			f.lsd[0].stable, s.thr[0].lsd.stable = iterations(f, s), 0
		},
		"LSD stability grew by more than one per iteration": func(f *Frontend, s *LoopSnap) {
			s.thr[0].lsd.stable = f.lsd[0].stable - 2*iterations(f, s)
		},
		"alignment tracker": func(f *Frontend, _ *LoopSnap) { f.align.poison++ },
		"switch point":      func(f *Frontend, _ *LoopSnap) { f.sw.addrs[0]++ },
		"switch count":      func(f *Frontend, _ *LoopSnap) { f.sw.counts[0]++ },
		"IDQ":               func(f *Frontend, _ *LoopSnap) { f.idq[0].Push(&isa.Inst{UOps: 1}) },
		"branch history":    func(f *Frontend, _ *LoopSnap) { f.BPU[0].Train(0x40, 0x80, 1) },
		"L1I": func(f *Frontend, _ *LoopSnap) {
			f.L1I.FlushAll()
		},
	}
	for name, change := range changes {
		for _, c := range []struct {
			kind string
			f    *Frontend
			s    *LoopSnap
		}{{"locked", locked, sl}, {"tracking", tracking, st}} {
			f, s := copyFE(c.f), *c.s
			change(f, &s)
			if f.LoopRecurs(&s) {
				t.Errorf("%s loop, %s changed: still recurs", c.kind, name)
			}
		}
	}
	// The stability count may grow by one per iteration past the lock
	// threshold: a tracked loop that never qualifies keeps counting.
	if st.thr[0].lsd.stable == tracking.lsd[0].stable {
		t.Fatal("the tracked loop's stability did not grow")
	}
}

// iterations returns how many loop iterations lie between s and f.
func iterations(f *Frontend, s *LoopSnap) int {
	now, _ := f.thr[0].stream.Progress()
	then, _ := s.thr[0].fth.stream.Progress()
	return now - then
}

// copyFE returns a copy of f that logs no addends: a snapshot's log is
// its own frontend's.
func copyFE(f *Frontend) *Frontend {
	c := *f
	c.log = nil
	return &c
}

// TestAdvanceLoopMatchesDelivery advances recurring loops by whole
// periods and requires the frontend to equal one that delivered them,
// float counters bit for bit. The LCP loop runs with binary-exact stall
// charges so that it recurs, while its LCP counter still rounds.
func TestAdvanceLoopMatchesDelivery(t *testing.T) {
	lcp := []*isa.Block{isa.LCPBlock(isa.AddrForSet(6, 4), 6, false)}
	isa.ChainLoop(lcp)
	dyadic := DefaultParams()
	dyadic.LCPOverlapCharge, dyadic.SwitchOverlapCharge = 0, 0.125
	for _, tc := range []struct {
		name   string
		blocks []*isa.Block
		p      Params
	}{
		{"lsd", isa.MixChain(3, 8, true), DefaultParams()},
		{"dsb thrash", isa.MixChain(3, 9, true), DefaultParams()},
		{"lcp", lcp, dyadic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, s := recurringFrontend(t, newFEWith(tc.p, true), tc.blocks)
			per := iterations(f, s)
			want := copyFE(f)
			deliverIterations(want, 5*per)
			f.AdvanceLoop(s, 5)
			if diff := clonecheck.Diff(f, want); len(diff) != 0 || f.log != nil {
				t.Fatalf("advanced frontend differs from delivery:\n%s", strings.Join(diff, "\n"))
			}
			if tc.name == "lcp" && f.Ctr[0].LCPStallCycles == 0 {
				t.Fatal("the LCP loop charged no LCP stalls")
			}
		})
	}
}

// deliverIterations drives thread 0 with a 4-wide drain for n more loop
// iterations, ending at an iteration boundary.
func deliverIterations(f *Frontend, n int) {
	loop := &f.thr[0].stream
	end, _ := loop.Progress()
	end += n
	for i, _ := loop.Progress(); i < end; i, _ = loop.Progress() {
		f.DeliverCycle(0)
		for range 4 {
			f.PopUOp(0)
		}
	}
}

// TestAdvanceMovesEveryCounter pins that each advance moves every
// counter by k more times its growth since prev, including counters a
// steady loop seldom moves, and replays the float addends k times.
func TestAdvanceMovesEveryCounter(t *testing.T) {
	l, prevL := LSD{stable: 5, locks: 2, flushes: 4}, LSD{stable: 3, locks: 1, flushes: 2}
	l.advance(&prevL, 3)
	if l.stable != 11 || l.locks != 5 || l.flushes != 10 {
		t.Errorf("LSD stable/locks/flushes %d/%d/%d, want 11/5/10", l.stable, l.locks, l.flushes)
	}
	b, prevB := switchBuffer{stats: SwitchStats{2, 4, 6, 8}}, switchBuffer{stats: SwitchStats{1, 2, 3, 4}}
	b.advance(&prevB, 2)
	if b.stats != (SwitchStats{4, 8, 12, 16}) {
		t.Errorf("switch-buffer stats %+v", b.stats)
	}
	d, prevD := DSB{stats: DSBStats{2, 3, 4, 5, 6}}, DSB{stats: DSBStats{1, 1, 1, 1, 1}}
	d.advance(&prevD, 2)
	if d.stats != (DSBStats{4, 7, 10, 13, 16}) {
		t.Errorf("DSB stats %+v", d.stats)
	}
	c := ThreadCounters{1, 2, 3, 4, 5, 6, 0, 0, 7, 8, 9}
	c.advance(&ThreadCounters{}, 2, []float64{0.5, 0.25}, []float64{2})
	if want := (ThreadCounters{3, 6, 9, 12, 15, 18, 1.5, 4, 21, 24, 27}); c != want {
		t.Errorf("counters %+v, want %+v", c, want)
	}
}
