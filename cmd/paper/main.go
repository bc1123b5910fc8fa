// Command paper regenerates the complete evaluation of "The
// Transactional Conflict Problem" in one run, writing every table to
// the given output directory (default ./results):
//
//	paper [-out results] [-quick]
//
// -quick shrinks trial counts and simulated durations for a fast
// smoke reproduction (~seconds); the default sizes take a few
// minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"txconflict/internal/adversary"
	"txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/experiments"
	"txconflict/internal/report"
	"txconflict/internal/rng"
	"txconflict/internal/stats"
	"txconflict/internal/strategy"
	"txconflict/internal/synth"
)

func main() {
	var (
		out   = flag.String("out", "results", "output directory")
		quick = flag.Bool("quick", false, "small trial counts for a fast run")
		seed  = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	trials := 200000
	cycles := uint64(2_000_000)
	ntx := 20000
	if *quick {
		trials = 20000
		cycles = 300_000
		ntx = 3000
	}

	save := func(name string, tables ...*report.Table) {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		for _, t := range tables {
			if err := t.WriteText(f); err != nil {
				fatal(err)
			}
		}
		fmt.Println("wrote", path)
	}

	// E1-E3: Figure 2.
	save("figure2.txt",
		synth.Figure2(2000, 500, trials, *seed),
		synth.Figure2(200, 500, trials, *seed),
		synth.Figure2c(1000, trials, *seed))

	// E10-E12: analytic validations.
	save("analytic.txt",
		synth.AbortProbability(1000, trials, *seed),
		synth.Crossover(10),
		synth.RatioValidation(1000, trials/4, *seed))

	// Scenario diversity beyond the paper: the extended distribution
	// suite (heavy-tailed, rank-skewed, trace replay) in both Figure 2
	// cost regimes.
	save("distsweep.txt",
		synth.ExtendedSweep(2000, 500, 2, trials, *seed),
		synth.ExtendedSweep(200, 500, 2, trials, *seed))

	// E4-E7: Figure 3 on the HTM simulator.
	cfg := experiments.DefaultFig3Config()
	cfg.Cycles = cycles
	cfg.Seed = *seed
	var fig3 []*report.Table
	for _, bench := range []string{"stack", "queue", "txapp", "bimodal"} {
		t, err := experiments.Figure3(bench, cfg)
		if err != nil {
			fatal(err)
		}
		fig3 = append(fig3, t)
	}
	save("figure3.txt", fig3...)

	// Ablations (DESIGN.md §5).
	abl, err := experiments.Ablations("txapp", 8, cfg)
	if err != nil {
		fatal(err)
	}
	save("ablations.txt", abl)

	// E8: Corollary 1.
	save("corollary1.txt", corollary1(ntx, rng.New(*seed)))

	// E9: Corollary 2.
	save("corollary2.txt", corollary2(trials/40, rng.New(*seed)))

	// E13: STM throughput on real goroutines.
	stmCfg := experiments.DefaultSTMConfig()
	if *quick {
		stmCfg.Duration = 50 * time.Millisecond
	}
	var stmTabs []*report.Table
	for _, bench := range []string{"stack", "queue", "txapp", "bimodal"} {
		t, err := experiments.STMThroughput(bench, stmCfg)
		if err != nil {
			fatal(err)
		}
		stmTabs = append(stmTabs, t)
	}
	save("stm.txt", stmTabs...)

	// E18: STM runtime design ablations — arena sharding, locking
	// mode, batched group commit, policies, backoff, NO_DELAY — each
	// varied alone against the pinned eager requestor-wins baseline.
	stmAbl, err := experiments.STMAblations("txapp", 8, stmCfg)
	if err != nil {
		fatal(err)
	}
	save("stm_ablations.txt", stmAbl)

	// E17: the Section 1 profile-to-simulation loop — record a real
	// hotspot run on the STM runtime, replay its exact footprints on
	// the HTM simulator and a fresh STM arena, compare.
	recDur := 300 * time.Millisecond
	fidCycles := uint64(1_000_000)
	if *quick {
		recDur = 80 * time.Millisecond
		fidCycles = 200_000
	}
	tr, err := experiments.RecordTrace("hotspot", stmCfg, 4, recDur)
	if err != nil {
		fatal(err)
	}
	fid, err := experiments.TraceFidelity(tr, experiments.FidelityConfig{
		Cycles:   fidCycles,
		Duration: recDur,
		Seed:     *seed,
		STM:      stmCfg, // same runtime mode as the recorded run
	})
	if err != nil {
		fatal(err)
	}
	save("tracefidelity.txt", fid)
}

func corollary1(ntx int, r *rng.Rand) *report.Table {
	t := &report.Table{
		Title:   "Corollary 1: sum-of-running-times ratio vs (r·w+1)/(w+1) bound",
		Columns: []string{"adversary", "policy", "strategy", "waste w", "ratio", "bound"},
	}
	gens := []adversary.Generator{
		adversary.Random{NTx: ntx, Lengths: dist.Exponential{Mu: 200}, ConflictFrac: 0.5, K: 2, Cleanup: 50},
		adversary.HighContention{NTx: ntx, Lengths: dist.Exponential{Mu: 100}, KMax: 6, Cleanup: 30},
		adversary.AntiDeterministic{NTx: ntx, K: 2, Cleanup: 25},
	}
	cases := []struct {
		pol core.Policy
		s   core.Strategy
	}{
		{core.RequestorWins, strategy.UniformRW{}},
		{core.RequestorWins, strategy.GeneralRW{}},
		{core.RequestorAborts, strategy.ExpRA{}},
	}
	for _, g := range gens {
		sched := g.Generate(r)
		for _, c := range cases {
			w := adversary.Waste(c.pol, sched)
			on := adversary.Run(c.pol, c.s, sched, r)
			opt := adversary.RunOpt(c.pol, sched)
			local := 0.0
			for _, conf := range sched.Conflicts {
				cc := core.Conflict{Policy: c.pol, K: conf.K, B: 1}
				if lr := c.s.(strategy.Analytic).Ratio(cc); lr > local {
					local = lr
				}
			}
			t.AddRow(g.Name(), c.pol.String(), c.s.Name(),
				w, stats.Ratio(on.SumRunning, opt.SumRunning), adversary.CorollaryBound(local, w))
		}
	}
	return t
}

func corollary2(trials int, r *rng.Rand) *report.Table {
	t := &report.Table{
		Title:   "Corollary 2: attempts to commit under multiplicative backoff",
		Columns: []string{"y", "gamma", "k", "B0", "bound", "P[within bound]"},
	}
	for _, p := range []adversary.ProgressParams{
		{Y: 1000, Gamma: 3, K: 2, B0: 64},
		{Y: 5000, Gamma: 5, K: 2, B0: 32},
		{Y: 1000, Gamma: 2, K: 4, B0: 128},
	} {
		res := adversary.RunProgress(p, trials, r)
		t.AddRow(p.Y, p.Gamma, p.K, p.B0, res.Bound, res.PWithinBound)
	}
	return t
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paper:", err)
	os.Exit(1)
}
