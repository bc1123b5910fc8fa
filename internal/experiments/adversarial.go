package experiments

import (
	"txconflict/internal/adversary"
	"txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/report"
	"txconflict/internal/rng"
	"txconflict/internal/strategy"
)

// Corollary1 checks Corollary 1 on the adversarial accounting model:
// for each adversary (ntx transactions per schedule) and each online
// strategy, the sum-of-running-times ratio against the clairvoyant
// optimum next to its (r·w+1)/(w+1) bound, where r is the strategy's
// worst local ratio over the schedule's chain lengths. "holds" allows
// the ratio 3% of sampling slack above the bound.
func Corollary1(ntx int, seed uint64) *report.Table {
	r := rng.New(seed)
	t := &report.Table{
		Title:   "Corollary 1: sum-of-running-times ratio vs (r·w+1)/(w+1) bound",
		Columns: []string{"adversary", "policy", "strategy", "waste w", "ratio", "bound", "holds"},
	}
	gens := []adversary.Generator{
		adversary.Random{NTx: ntx, Lengths: dist.Exponential{Mu: 200}, ConflictFrac: 0.5, K: 2, Cleanup: 50},
		adversary.Random{NTx: ntx, Lengths: dist.UniformMean(300), ConflictFrac: 0.9, K: 3, Cleanup: 20},
		adversary.HighContention{NTx: ntx, Lengths: dist.Exponential{Mu: 100}, KMax: 6, Cleanup: 30},
		adversary.AntiDeterministic{NTx: ntx, K: 2, Cleanup: 25},
	}
	cases := []struct {
		pol core.Policy
		s   core.Strategy
	}{
		{core.RequestorWins, strategy.UniformRW{}},
		{core.RequestorWins, strategy.GeneralRW{}},
		{core.RequestorWins, strategy.Deterministic{}},
		{core.RequestorAborts, strategy.ExpRA{}},
	}
	for _, g := range gens {
		sched := g.Generate(r)
		for _, c := range cases {
			w := adversary.Waste(c.pol, sched)
			on := adversary.Run(c.pol, c.s, sched, r)
			opt := adversary.RunOpt(c.pol, sched)
			ratio := on.SumRunning / opt.SumRunning
			local := 0.0
			for _, conf := range sched.Conflicts {
				cc := core.Conflict{Policy: c.pol, K: conf.K, B: 1}
				if lr := c.s.(strategy.Analytic).Ratio(cc); lr > local {
					local = lr
				}
			}
			bound := adversary.CorollaryBound(local, w)
			holds := "yes"
			if ratio > bound*1.03 {
				holds = "NO"
			}
			t.AddRow(g.Name(), c.pol.String(), c.s.Name(), w, ratio, bound, holds)
		}
	}
	return t
}

// Corollary2 checks Corollary 2: the attempts a transaction needs to
// commit under multiplicative backoff, over trials runs per parameter
// set, against the attempt bound.
func Corollary2(trials int, seed uint64) *report.Table {
	r := rng.New(seed)
	t := &report.Table{
		Title:   "Corollary 2: attempts to commit under multiplicative backoff",
		Columns: []string{"y", "gamma", "k", "B0", "bound", "P[within bound]", "mean attempts"},
	}
	for _, p := range []adversary.ProgressParams{
		{Y: 1000, Gamma: 3, K: 2, B0: 64},
		{Y: 5000, Gamma: 5, K: 2, B0: 32},
		{Y: 1000, Gamma: 2, K: 4, B0: 128},
		{Y: 200, Gamma: 8, K: 2, B0: 16},
	} {
		res := adversary.RunProgress(p, trials, r)
		sum := 0
		for _, a := range res.Attempts {
			sum += a
		}
		mean := float64(sum) / float64(len(res.Attempts))
		t.AddRow(p.Y, p.Gamma, p.K, p.B0, res.Bound, res.PWithinBound, mean)
	}
	t.AddNote("Corollary 2 predicts P[within bound] >= 1/2")
	return t
}

// Timeline checks Corollary 1 operationally: ntx transactions split
// over 2, 4 and 8 threads on a shared timeline, where a grace period
// delays the whole requesting thread, against the clairvoyant optimum
// on the same schedule.
func Timeline(ntx int, seed uint64) *report.Table {
	t := &report.Table{
		Title:   "Operational timeline: sum of running times vs clairvoyant optimum",
		Columns: []string{"policy", "strategy", "threads", "waste w", "ratio", "bound", "grace saves"},
	}
	for _, n := range []int{2, 4, 8} {
		for _, c := range []struct {
			pol core.Policy
			s   core.Strategy
			r   float64
		}{
			{core.RequestorWins, strategy.UniformRW{}, 2},
			{core.RequestorAborts, strategy.ExpRA{}, 1.582},
		} {
			ratio, w, online, _ := adversary.TimelineRatio(adversary.TimelineParams{
				Threads:      n,
				TxPerThread:  ntx / n,
				Lengths:      dist.Exponential{Mu: 120},
				ConflictFrac: 0.4,
				Cleanup:      40,
				Policy:       c.pol,
				Strategy:     c.s,
				Seed:         seed,
			})
			t.AddRow(c.pol.String(), c.s.Name(), n, w, ratio, adversary.CorollaryBound(c.r, w), online.GraceSaves)
		}
	}
	t.AddNote("operational model: delays shift whole thread timelines (queueing included)")
	return t
}

// Hybrid compares the Section 9 hybrid against the pure policies on
// one high-contention schedule of ntx transactions with chain lengths
// 2..6: requestor aborts has the better ratio for pair conflicts,
// requestor wins for chains, so resolving each conflict under its
// preferred policy should beat both.
func Hybrid(ntx int, seed uint64) *report.Table {
	r := rng.New(seed)
	sched := adversary.HighContention{
		NTx:     ntx,
		Lengths: dist.Exponential{Mu: 150},
		KMax:    6,
		Cleanup: 40,
	}.Generate(r)
	t := &report.Table{
		Title:   "Mixed chain lengths (k in 2..6): waste vs clairvoyant optimum",
		Columns: []string{"resolution", "waste", "vs OPT"},
	}
	optRW := adversary.RunOpt(core.RequestorWins, sched)
	rw := adversary.Run(core.RequestorWins, strategy.GeneralRW{}, sched, r)
	t.AddRow("pure requestor-wins (RRW*)", rw.Waste, rw.Waste/optRW.Waste)
	optRA := adversary.RunOpt(core.RequestorAborts, sched)
	ra := adversary.Run(core.RequestorAborts, strategy.ExpRA{}, sched, r)
	t.AddRow("pure requestor-aborts (RRA)", ra.Waste, ra.Waste/optRA.Waste)
	hybridWaste := 0.0
	h := strategy.Hybrid{}
	for _, c := range sched.Conflicts {
		sub := adversary.Schedule{Cleanup: sched.Cleanup, Conflicts: []adversary.Conflict{c}}
		hybridWaste += adversary.Run(core.HybridPolicy(c.K), h, sub, r).Waste
	}
	t.AddRow("hybrid (Section 9)", hybridWaste, hybridWaste/optRW.Waste)
	return t
}
