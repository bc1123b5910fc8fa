// Command stmbench runs the real-goroutine STM throughput benchmarks
// — the Figure 3 analogue on actual parallel hardware, with the same
// strategy set (NO_DELAY, DELAY_TUNED, DELAY_DET, DELAY_RAND).
// Workloads come from the shared scenario registry
// (internal/scenario), the same engine cmd/paper's figure3.txt drives
// on the HTM simulator, and every cell is verified against the
// scenario's committed-state invariant.
//
// Usage:
//
//	stmbench -scenario all
//	stmbench -scenario stack -goroutines 1,2,4,8
//	stmbench -scenario txapp -policy ra -lazy
//	stmbench -scenario hotspot -dist zipf -mu 100  # skewed lengths too
//	stmbench -scenario hotspot -batch 8      # lazy batched group commit
//	stmbench -scenario hotspot -batch 4 -fold  # commutative delta folding
//	stmbench -ablate -scenario txapp         # runtime design ablations
//
// -ablate varies one design choice at a time against a pinned eager
// requestor-wins baseline, so it rejects -policy, -lazy, -batch and
// -fold; -mu is the mean of a -dist override and needs -dist.
//
// Trace capture and replay (internal/trace — the Section 1
// profile-to-simulation loop):
//
//	stmbench -scenario hotspot -record run.btrace  # record a real run
//	stmbench -replay run.btrace                    # replay it as a scenario
//	stmbench -fidelity run.btrace                  # recorded vs sim vs replayed
//	stmbench -synth 1000000 -record big.btrace     # stream a synthetic trace to disk
//
// Traces are read and written only in the binary container, so
// -record must end in .btrace; -replay samples a large trace through
// its block index.
//
// Recorded throughput and latency numbers come from `bash bench/run.sh`
// (see bench/README.md); this command prints tables and records none.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"txconflict/internal/cliutil"
	"txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/experiments"
	"txconflict/internal/report"
	"txconflict/internal/scenario"
	"txconflict/internal/trace"
)

func main() {
	var (
		scen     = flag.String("scenario", "all", "scenario from the shared registry (or 'all', 'list'); see internal/scenario")
		distName = flag.String("dist", "", "override the transaction-length distribution (see internal/dist; '' = scenario default)")
		mu       = flag.Float64("mu", 60, "mean of the -dist override, in busy-work iterations (requires -dist; 0 replays a registered trace:<key> distribution raw)")
		levels   = flag.String("goroutines", "", "comma-separated goroutine counts (default: powers of two up to GOMAXPROCS)")
		dur      = flag.Duration("duration", 300*time.Millisecond, "measurement duration per cell")
		policy   = flag.String("policy", "rw", "conflict policy: rw or ra")
		lazy     = flag.Bool("lazy", false, "use lazy (commit-time) locking instead of eager")
		batch    = flag.Int("batch", 0, "lazy group-commit batch bound (0 = unbatched; > 0 implies -lazy)")
		fold     = flag.Bool("fold", false, "fold commutative deltas in the batched combiner (requires -batch > 0)")
		seed     = flag.Uint64("seed", 1, "random seed")
		ablate   = flag.Bool("ablate", false, "run the STM design ablations instead of the strategy sweep (baseline pinned: rejects -policy/-lazy/-batch/-fold)")
		record   = flag.String("record", "", "record a trace of the scenario run to this .btrace file (binary container; see internal/trace)")
		replay   = flag.String("replay", "", "replay a recorded trace file as the benchmark scenario (large .btrace traces are index-sampled)")
		fidelity = flag.String("fidelity", "", "emit the sim-vs-real fidelity report for a recorded trace file")
		synth    = flag.Int("synth", 0, "stream this many synthetic records to the -record path and exit (streaming-writer soak)")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if err := cliutil.CheckNonNegative("batch", *batch); err != nil {
		cliutil.Fatal("stmbench", err)
	}
	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		cliutil.Fatal("stmbench", fmt.Errorf("-policy: %w", err))
	}
	// The ablations pin their baseline, so a runtime flag would
	// silently measure nothing.
	for _, name := range []string{"policy", "lazy", "batch", "fold"} {
		if err := cliutil.CheckRequires(name, set[name], !*ablate, "the strategy sweep (-ablate pins the eager requestor-wins baseline)"); err != nil {
			cliutil.Fatal("stmbench", err)
		}
	}
	if err := cliutil.CheckNonNegative("mu", *mu); err != nil {
		cliutil.Fatal("stmbench", err)
	}
	if err := cliutil.CheckRequires("mu", set["mu"], *distName != "", "-dist <name> (it is the mean of the -dist override)"); err != nil {
		cliutil.Fatal("stmbench", err)
	}
	// Folding only exists inside the group-commit combiner, so a
	// -fold without a batch bound would silently measure nothing.
	if err := cliutil.CheckRequires("fold", *fold, *batch > 0, "-batch > 0 (folding happens in the group-commit combiner)"); err != nil {
		cliutil.Fatal("stmbench", err)
	}
	if err := cliutil.CheckNonNegative("synth", *synth); err != nil {
		cliutil.Fatal("stmbench", err)
	}
	if err := cliutil.CheckRequires("synth", *synth > 0, *record != "", "-record <path> (the synthetic stream needs a destination)"); err != nil {
		cliutil.Fatal("stmbench", err)
	}

	sel := *scen
	if sel == "list" {
		for _, line := range scenario.Describe() {
			fmt.Println(line)
		}
		return
	}

	if *replay != "" {
		// The loaded trace becomes a first-class registry scenario (and
		// its profiled distributions join the dist catalog), so the
		// normal sweep below runs it like any built-in.
		sel = loadReplay(*replay)
	}

	cfg := experiments.DefaultSTMConfig()
	cfg.Duration = *dur
	cfg.Seed = *seed
	cfg.Lazy = *lazy || *batch > 0 // the combiner only exists in lazy mode
	cfg.CommitBatch = *batch
	cfg.FoldCommutative = *fold
	cfg.Rule.Policy = pol
	if *distName != "" {
		smp, err := dist.ByName(*distName, *mu)
		if err != nil {
			// The error already carries the sorted registered names.
			cliutil.Fatal("stmbench", err)
		}
		cfg.Length = smp
	}
	if sel != "all" {
		if err := cliutil.CheckName("scenario", sel, scenario.Names()); err != nil {
			cliutil.Fatal("stmbench", err)
		}
	}
	if *levels != "" {
		var gs []int
		for _, part := range strings.Split(*levels, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "stmbench: bad goroutine count %q\n", part)
				os.Exit(2)
			}
			gs = append(gs, n)
		}
		cfg.Goroutines = gs
	}

	if *fidelity != "" {
		runFidelity(*fidelity, cfg)
		return
	}
	if *synth > 0 {
		runSynth(*synth, *record, maxLevel(cfg.Goroutines), *seed)
		return
	}
	if *record != "" {
		runRecord(sel, *record, cfg)
		return
	}

	benches := []string{sel}
	if sel == "all" {
		benches = scenario.Names()
	}
	for _, b := range benches {
		var (
			tab *report.Table
			err error
		)
		if *ablate {
			tab, err = experiments.STMAblations(b, maxLevel(cfg.Goroutines), cfg)
		} else {
			tab, err = experiments.STMThroughput(b, cfg)
		}
		if err == nil {
			err = tab.WriteText(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(1)
		}
	}
}

func maxLevel(levels []int) int {
	m := 0
	for _, n := range levels {
		if n > m {
			m = n
		}
	}
	return m
}

// replayBudget caps how many records -replay materializes: beyond
// it, trace.LoadSample keeps an evenly spaced subset via the block
// index, so replaying a 10⁸-record capture stays bounded in memory.
const replayBudget = 65536

// loadReplay loads a recorded trace (sampling past replayBudget),
// registers its replay in the scenario catalog (as
// "replay:<filename>") and its profiled length/think distributions in
// the dist catalog, and returns the registered scenario name.
func loadReplay(path string) string {
	tr, err := trace.LoadSample(path, replayBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(2)
	}
	name := "replay:" + filepath.Base(path)
	if err := trace.RegisterScenario(name, tr); err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(2)
	}
	if _, _, err := trace.NewProfile(tr).RegisterSamplers(filepath.Base(path)); err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(2)
	}
	if tr.Sampled > 0 {
		fmt.Printf("replaying %s: scenario %q (%d of %d records, index-sampled; -dist trace:%s -mu 0 for its raw lengths)\n",
			path, name, len(tr.Records), tr.Sampled, filepath.Base(path))
	} else {
		fmt.Printf("replaying %s: scenario %q (%d committed records; -dist trace:%s -mu 0 for its raw lengths)\n",
			path, name, tr.Commits(), filepath.Base(path))
	}
	return name
}

// runSynth streams n synthetic records through the trace writer —
// the bounded-memory soak behind `make trace-demo`'s million-record
// leg. Records are deterministic in -seed: round-robin workers,
// monotone start times, small sorted footprints, all committed.
func runSynth(n int, path string, workers int, seed uint64) {
	if workers < 1 {
		workers = 4
	}
	h := trace.Header{
		Scenario: "synth",
		Workers:  workers,
		Config:   fmt.Sprintf("synth(n=%d,seed=%d)", n, seed),
		UnitNs:   1,
	}
	w, err := trace.Create(path, h)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	x := seed | 1
	var rec trace.Record
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		base := uint32(x>>33) % 1024
		rec = trace.Record{
			Worker:    int32(i % workers),
			StartNs:   int64(i) * 1500,
			DurNs:     1200 + int64(x%400),
			Retries:   uint32(x % 3),
			Committed: true,
			Ops:       4,
			Compute:   float64(16 + x%64),
			Think:     float64(x % 32),
			Reads:     []uint32{base, base + 1, base + 7},
			Writes:    []uint32{base},
		}
		if err := w.WriteRecord(&rec); err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(1)
		}
	}
	if err := w.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	fi, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d synthetic records, %d bytes, %.1f bytes/record)\n",
		path, n, fi.Size(), float64(fi.Size())/float64(n))
}

// runRecord records one STM run of the selected scenario at the
// highest configured goroutine level, saves the trace, and prints its
// profile.
func runRecord(bench, path string, cfg experiments.STMConfig) {
	if bench == "all" {
		bench = "hotspot" // the contended default worth profiling
	}
	workers := maxLevel(cfg.Goroutines)
	tr, err := experiments.RecordTrace(bench, cfg, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	if err := trace.Save(path, tr); err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	if err := trace.NewProfile(tr).Table().WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d records, %d committed, %d workers)\n",
		path, len(tr.Records), tr.Commits(), tr.Workers)
}

// runFidelity replays a recorded trace on both backends and prints
// the recorded-vs-simulated-vs-measured comparison.
func runFidelity(path string, cfg experiments.STMConfig) {
	tr, err := trace.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(2)
	}
	tab, err := experiments.TraceFidelity(tr, experiments.FidelityConfig{
		STM: cfg, // honor -duration/-seed/-policy/-lazy/-batch/-fold on the replay
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	if err := tab.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
}
