// Command paper regenerates the complete evaluation of "The
// Transactional Conflict Problem" in one run, writing every table to
// the given output directory (default ./results):
//
//	paper [-out results] [-quick] [-seed 1]
//
// -quick shrinks trial counts and simulated durations for a fast
// smoke reproduction (~seconds); the default sizes take a few
// minutes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"txconflict/internal/experiments"
	"txconflict/internal/report"
	"txconflict/internal/synth"
)

// sizes are the trial counts and durations of one run.
type sizes struct {
	seed      uint64
	trials    int           // synthetic cells; Corollary 2 runs trials/40
	ntx       int           // transactions per adversarial schedule
	cycles    uint64        // simulated cycles per Figure 3 and ablation cell
	stm       time.Duration // per STM throughput and ablation cell
	record    time.Duration // trace-fidelity recording
	fidCycles uint64        // trace-fidelity simulated replay
}

func sizesFor(quick bool, seed uint64) sizes {
	if quick {
		return sizes{seed: seed, trials: 20000, ntx: 3000, cycles: 300_000,
			stm: 50 * time.Millisecond, record: 80 * time.Millisecond, fidCycles: 200_000}
	}
	return sizes{seed: seed, trials: 200000, ntx: 20000, cycles: 2_000_000,
		stm: 200 * time.Millisecond, record: 300 * time.Millisecond, fidCycles: 1_000_000}
}

// section is one output file and the builder of its tables. timed
// sections measure wall-clock throughput on real goroutines; every
// other section repeats byte for byte for a given size and seed.
type section struct {
	file  string
	timed bool
	build func(s sizes) ([]*report.Table, error)
}

var sections = []section{
	// E1-E3: Figure 2.
	{file: "figure2.txt", build: func(s sizes) ([]*report.Table, error) {
		return []*report.Table{
			synth.Figure2(2000, 500, s.trials, s.seed),
			synth.Figure2(200, 500, s.trials, s.seed),
			synth.Figure2c(1000, s.trials, s.seed),
		}, nil
	}},
	// E10-E12: analytic validations.
	{file: "analytic.txt", build: func(s sizes) ([]*report.Table, error) {
		return []*report.Table{
			synth.AbortProbability(1000, s.trials, s.seed),
			synth.Crossover(10),
			synth.RatioValidation(1000, s.trials/4, s.seed),
		}, nil
	}},
	// Scenario diversity beyond the paper: the extended distribution
	// suite (heavy-tailed, rank-skewed, trace replay) in both Figure 2
	// cost regimes.
	{file: "distsweep.txt", build: func(s sizes) ([]*report.Table, error) {
		return []*report.Table{
			synth.ExtendedSweep(2000, 500, 2, s.trials, s.seed),
			synth.ExtendedSweep(200, 500, 2, s.trials, s.seed),
		}, nil
	}},
	// E4-E7: Figure 3 on the HTM simulator.
	{file: "figure3.txt", build: func(s sizes) ([]*report.Table, error) {
		var tabs []*report.Table
		for _, bench := range []string{"stack", "queue", "txapp", "bimodal"} {
			t, err := experiments.Figure3(bench, fig3Config(s))
			if err != nil {
				return nil, err
			}
			tabs = append(tabs, t)
		}
		return tabs, nil
	}},
	// Ablations (DESIGN.md §5).
	{file: "ablations.txt", build: func(s sizes) ([]*report.Table, error) {
		return one(experiments.Ablations("txapp", 8, fig3Config(s)))
	}},
	// E8: Corollary 1 on the adversarial accounting model.
	{file: "corollary1.txt", build: func(s sizes) ([]*report.Table, error) {
		return []*report.Table{experiments.Corollary1(s.ntx, s.seed)}, nil
	}},
	// E9: Corollary 2.
	{file: "corollary2.txt", build: func(s sizes) ([]*report.Table, error) {
		return []*report.Table{experiments.Corollary2(s.trials/40, s.seed)}, nil
	}},
	// Corollary 1 on the operational multi-thread timeline.
	{file: "timeline.txt", build: func(s sizes) ([]*report.Table, error) {
		return []*report.Table{experiments.Timeline(s.ntx, s.seed)}, nil
	}},
	// Section 9: the hybrid policy vs the pure ones on mixed chain
	// lengths.
	{file: "hybrid.txt", build: func(s sizes) ([]*report.Table, error) {
		return []*report.Table{experiments.Hybrid(s.ntx, s.seed)}, nil
	}},
	// E13: STM throughput on real goroutines.
	{file: "stm.txt", timed: true, build: func(s sizes) ([]*report.Table, error) {
		var tabs []*report.Table
		for _, bench := range []string{"stack", "queue", "txapp", "bimodal"} {
			t, err := experiments.STMThroughput(bench, stmConfig(s))
			if err != nil {
				return nil, err
			}
			tabs = append(tabs, t)
		}
		return tabs, nil
	}},
	// E18: STM runtime design ablations — lazy locking, batched group
	// commit, requestor-aborts, the §9 hybrid policy, the
	// mean-profiled strategy, Cor2 backoff, NO_DELAY — each varied
	// alone against the pinned eager requestor-wins baseline.
	{file: "stm_ablations.txt", timed: true, build: func(s sizes) ([]*report.Table, error) {
		return one(experiments.STMAblations("txapp", 8, stmConfig(s)))
	}},
	// E17: the Section 1 profile-to-simulation loop — record a real
	// hotspot run on the STM runtime, replay its exact footprints on
	// the HTM simulator and a fresh STM arena, compare.
	{file: "tracefidelity.txt", timed: true, build: func(s sizes) ([]*report.Table, error) {
		cfg := stmConfig(s)
		cfg.Duration = s.record
		tr, err := experiments.RecordTrace("hotspot", cfg, 4)
		if err != nil {
			return nil, err
		}
		return one(experiments.TraceFidelity(tr, experiments.FidelityConfig{
			Cycles: s.fidCycles,
			STM:    cfg, // same runtime mode, length and seed as the recorded run
		}))
	}},
}

func fig3Config(s sizes) experiments.Fig3Config {
	cfg := experiments.DefaultFig3Config()
	cfg.Cycles = s.cycles
	cfg.Seed = s.seed
	return cfg
}

func stmConfig(s sizes) experiments.STMConfig {
	cfg := experiments.DefaultSTMConfig()
	cfg.Duration = s.stm
	cfg.Seed = s.seed
	return cfg
}

func one(t *report.Table, err error) ([]*report.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*report.Table{t}, nil
}

func writeTables(w io.Writer, tabs []*report.Table) error {
	for _, t := range tabs {
		if err := t.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

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
	s := sizesFor(*quick, *seed)
	for _, sec := range sections {
		tabs, err := sec.build(s)
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(*out, sec.file)
		if err := save(path, tabs); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

// save writes tabs to path; a failed final flush on Close is an error
// like any failed write.
func save(path string, tabs []*report.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTables(f, tabs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paper:", err)
	os.Exit(1)
}
