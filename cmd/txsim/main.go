// Command txsim regenerates Figure 3 on the HTM multicore simulator:
// throughput of NO_DELAY, DELAY_TUNED, DELAY_DET and DELAY_RAND on
// the registered scenarios (the paper's stack, queue,
// transactional-application and bimodal benchmarks plus the
// read-mostly, long-reader and hotspot/zipf extensions) across
// thread counts. Workloads come from the shared scenario registry
// (internal/scenario), the same engine cmd/stmbench drives on the
// real STM runtime, and every cell is verified against the
// scenario's committed-state invariant.
//
// Usage:
//
//	txsim -scenario stack                   # one panel
//	txsim -scenario all                     # every registered scenario
//	txsim -scenario queue -threads 1,2,4,8  # custom sweep
//	txsim -scenario txapp -policy ra        # requestor-aborts HTM
//	txsim -scenario txapp -dist pareto -mu 80  # heavy-tailed lengths
//	txsim -scenario stack -detail 8         # per-cell metrics at 8 threads
//	txsim -replay run.trace                 # replay an stmbench -record file
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"txconflict/internal/cliutil"
	"txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/experiments"
	"txconflict/internal/report"
	"txconflict/internal/scenario"
	"txconflict/internal/strategy"
	"txconflict/internal/trace"
)

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	var (
		scen     = flag.String("scenario", "all", "scenario from the shared registry (or 'all', 'list'); see internal/scenario")
		distName = flag.String("dist", "", "override the transaction-length distribution (see internal/dist; '' = scenario default)")
		mu       = flag.Float64("mu", 60, "mean of the -dist override, in cycles (0 replays a registered trace:<key> distribution raw)")
		threads  = flag.String("threads", "1,2,4,8,12,16", "comma-separated core counts")
		cycles   = flag.Uint64("cycles", 2_000_000, "simulated cycles per cell")
		policy   = flag.String("policy", "rw", "conflict policy: rw or ra")
		delta    = flag.Int("delta", 1, "Add increment magnitude for the commutative scenarios (hotspot, kvcounter; lowered to read-modify-write on the simulator)")
		seed     = flag.Uint64("seed", 1, "random seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of text")
		detail   = flag.Int("detail", 0, "print detailed metrics for this thread count instead of the sweep")
		ablate   = flag.Int("ablate", 0, "run the design-choice ablations at this thread count instead of the sweep")
		replay   = flag.String("replay", "", "replay a recorded trace file (stmbench -record) as the simulated workload")
	)
	flag.Parse()

	for _, c := range []struct {
		name string
		v    int
	}{{"detail", *detail}, {"ablate", *ablate}} {
		if err := cliutil.CheckNonNegative(c.name, c.v); err != nil {
			cliutil.Fatal("txsim", err)
		}
	}
	if err := cliutil.CheckPositive("delta", *delta); err != nil {
		cliutil.Fatal("txsim", err)
	}
	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		cliutil.Fatal("txsim", fmt.Errorf("-policy: %w", err))
	}

	sel := *scen
	if sel == "list" {
		for _, line := range scenario.Describe() {
			fmt.Println(line)
		}
		return
	}

	if *replay != "" {
		// The recorded footprints become a registry scenario, so the
		// Figure 3 sweep below replays them like any built-in workload.
		// Compute units are converted to simulated cycles via the
		// trace's calibration header; huge captures load as an evenly
		// spaced index sample.
		tr, err := trace.LoadSample(*replay, 65536)
		if err != nil {
			fmt.Fprintln(os.Stderr, "txsim:", err)
			os.Exit(2)
		}
		sel = "replay:" + filepath.Base(*replay)
		if err := trace.RegisterScenarioCycles(sel, tr); err != nil {
			fmt.Fprintln(os.Stderr, "txsim:", err)
			os.Exit(2)
		}
		if _, _, err := trace.NewProfile(tr).RegisterSamplers(filepath.Base(*replay)); err != nil {
			fmt.Fprintln(os.Stderr, "txsim:", err)
			os.Exit(2)
		}
		fmt.Printf("replaying %s: scenario %q (%d committed records, unit scale ×%.3g; -dist trace:%s -mu 0 for its raw lengths)\n",
			*replay, sel, tr.Commits(), tr.CycleScale(), filepath.Base(*replay))
	}

	ths, err := parseThreads(*threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "txsim:", err)
		os.Exit(2)
	}
	cfg := experiments.Fig3Config{Threads: ths, Cycles: *cycles, Policy: pol, Delta: uint64(*delta), Seed: *seed, GHz: 1}
	if *distName != "" {
		smp, err := dist.ByName(*distName, *mu)
		if err != nil {
			// The error already carries the sorted registered names.
			cliutil.Fatal("txsim", err)
		}
		cfg.Length = smp
	}
	if sel != "all" {
		if err := cliutil.CheckName("scenario", sel, scenario.Names()); err != nil {
			cliutil.Fatal("txsim", err)
		}
	}

	benches := []string{sel}
	if sel == "all" {
		benches = scenario.Names()
	}

	for _, b := range benches {
		if *ablate > 0 {
			tab, err := experiments.Ablations(b, *ablate, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "txsim:", err)
				os.Exit(1)
			}
			if err := tab.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "txsim:", err)
				os.Exit(1)
			}
			continue
		}
		if *detail > 0 {
			if err := printDetail(b, *detail, cfg); err != nil {
				fmt.Fprintln(os.Stderr, "txsim:", err)
				os.Exit(1)
			}
			continue
		}
		tab, err := experiments.Figure3(b, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "txsim:", err)
			os.Exit(1)
		}
		if *csv {
			err = tab.WriteCSV(os.Stdout)
		} else {
			err = tab.WriteText(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "txsim:", err)
			os.Exit(1)
		}
	}
}

func printDetail(bench string, threads int, cfg experiments.Fig3Config) error {
	t := &report.Table{
		Title:   fmt.Sprintf("%s detail at %d threads", bench, threads),
		Columns: []string{"strategy", "commits", "aborts", "conflicts", "graceCommits", "capAborts", "nackAborts", "ops/s"},
	}
	tuned, err := experiments.TunedDelayFor(bench, cfg.Length)
	if err != nil {
		return err
	}
	for _, s := range strategy.Fig3Set(tuned) {
		met, err := experiments.Fig3Metrics(bench, threads, s, cfg)
		if err != nil {
			return err
		}
		t.AddRow(s.Name(), met.Commits, met.Aborts, met.Conflicts, met.GraceCommits,
			met.CapacityAborts, met.NackAborts, met.OpsPerSecond(cfg.GHz))
	}
	return t.WriteText(os.Stdout)
}
