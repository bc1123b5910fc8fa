package experiments

import (
	"fmt"
	"runtime"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/report"
	"txconflict/internal/scenario"
	"txconflict/internal/stm"
	"txconflict/internal/strategy"
)

// stmMeasurement is one measured cell on the real-goroutine runtime:
// throughput in committed transactions per second plus the runtime's
// own counters.
type stmMeasurement struct {
	CommitsPerSec   float64
	AbortsPerCommit float64
	KEstimate       float64
	// CommitP50Ns/CommitP99Ns are commit-latency quantiles from the
	// runtime's metrics plane (0 when nothing committed).
	CommitP50Ns float64
	CommitP99Ns float64
	Stats       map[string]uint64
}

// measureSTM runs n goroutines against the scenario runner for
// roughly d, verifies the scenario invariant, and reads the runtime
// counters afterwards.
func measureSTM(rn *scenario.STMRunner, n int, d time.Duration, seed uint64) (stmMeasurement, error) {
	res := rn.Drive(n, d, seed)
	if err := rn.Check(res.PerWorker); err != nil {
		return stmMeasurement{}, err
	}
	ps := rn.Runtime().Metrics().Snapshot()
	snap, q := ps.Counts(), ps.Commit.Summary()
	commits := snap["commits"]
	m := stmMeasurement{
		Stats:       snap,
		KEstimate:   rn.Runtime().KEstimate(),
		CommitP50Ns: q.P50,
		CommitP99Ns: q.P99,
	}
	if res.ElapsedSec > 0 {
		m.CommitsPerSec = float64(commits) / res.ElapsedSec
	}
	if commits > 0 {
		m.AbortsPerCommit = float64(snap["aborts"]) / float64(commits)
	}
	return m, nil
}

// STMAblations runs the runtime-level design ablations on one
// benchmark at one goroutine count on the real STM: arena sharding
// (striped clocks vs the flat single-clock layout), locking mode,
// policy, the Section 9 hybrid switch, the windowed conflict-chain
// estimator, Corollary 2 backoff, and the NO_DELAY baseline. The base
// configuration is pinned (eager requestor-wins, RRW, default shards)
// so every row varies exactly one design choice against the same
// baseline; cfg supplies only Duration, Seed and Length.
func STMAblations(bench string, goroutines int, cfg STMConfig) (*report.Table, error) {
	if goroutines <= 0 {
		goroutines = runtime.GOMAXPROCS(0)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 100 * time.Millisecond
	}
	type variant struct {
		name   string
		adjust func(c *stm.Config)
	}
	variants := []variant{
		{"baseline RW + RRW (striped clocks)", func(c *stm.Config) {}},
		{"flat arena (1 shard)", func(c *stm.Config) { c.Shards = 1 }},
		{"lazy (TL2 commit locking)", func(c *stm.Config) { c.Lazy = true }},
		{"lazy batched commit (CommitBatch=8)", func(c *stm.Config) {
			c.Lazy = true
			c.CommitBatch = 8
		}},
		{"policy RA + RRA", func(c *stm.Config) {
			c.Policy = core.RequestorAborts
			c.Strategy = strategy.ExpRA{}
		}},
		{"hybrid policy (Sec 9)", func(c *stm.Config) {
			c.HybridPolicy = true
			c.Strategy = strategy.Hybrid{}
		}},
		{"windowed k estimator (KWindow=64)", func(c *stm.Config) { c.KWindow = 64 }},
		{"Cor2 backoff x2", func(c *stm.Config) { c.BackoffFactor = 2 }},
		{"NO_DELAY", func(c *stm.Config) { c.Strategy = nil }},
	}
	t := &report.Table{
		Title:   fmt.Sprintf("STM ablations (%s, %d goroutines)", bench, goroutines),
		Columns: []string{"variant", "commits/s", "aborts/commit", "kills", "extensions"},
	}
	for _, v := range variants {
		sCfg := stm.Config{
			Policy:        core.RequestorWins,
			Strategy:      strategy.UniformRW{},
			CleanupCost:   2 * time.Microsecond,
			BackoffFactor: 1,
			MaxRetries:    256,
		}
		v.adjust(&sCfg)
		rn, err := stmScenario(bench, cfg.Length, cfg.Delta, goroutines, sCfg)
		if err != nil {
			return nil, err
		}
		m, err := measureSTM(rn, goroutines, cfg.Duration, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %q: %w", v.name, err)
		}
		t.AddRow(v.name, m.CommitsPerSec, m.AbortsPerCommit, m.Stats["kills"], m.Stats["extensions"])
	}
	return t, nil
}

// STMPerfPoint is one goroutine level of the perf snapshot.
type STMPerfPoint struct {
	Goroutines      int     `json:"goroutines"`
	CommitsPerSec   float64 `json:"commitsPerSec"`
	Aborts          uint64  `json:"aborts"`
	AbortsPerCommit float64 `json:"abortsPerCommit"`
	Kills           uint64  `json:"kills"`
	KEstimate       float64 `json:"kEstimate,omitempty"`
	// Commit-latency quantiles from the per-cell metrics plane, so the
	// perf history tracks the tail alongside throughput.
	CommitP50Ns float64 `json:"p50Ns,omitempty"`
	CommitP99Ns float64 `json:"p99Ns,omitempty"`
}

// STMScenarioPerf is one registry scenario's committed-transaction
// throughput, recorded so workload-level regressions show up in the
// perf history alongside the main trajectory.
type STMScenarioPerf struct {
	Scenario        string  `json:"scenario"`
	Goroutines      int     `json:"goroutines"`
	CommitsPerSec   float64 `json:"commitsPerSec"`
	AbortsPerCommit float64 `json:"abortsPerCommit"`
	CommitP50Ns     float64 `json:"p50Ns,omitempty"`
	CommitP99Ns     float64 `json:"p99Ns,omitempty"`
}

// STMBatchPerf is one CommitBatch level of the lazy group-commit
// sweep: committed-transaction throughput plus the combiner's own
// ledger (rounds and write sets committed by a combiner), so the
// recorded trajectory shows both the speedup and how much combining
// actually happened on the measuring machine.
type STMBatchPerf struct {
	CommitBatch   int     `json:"commitBatch"`
	CommitsPerSec float64 `json:"commitsPerSec"`
	CommitP50Ns   float64 `json:"p50Ns,omitempty"`
	CommitP99Ns   float64 `json:"p99Ns,omitempty"`
	Batches       uint64  `json:"batches,omitempty"`
	BatchCommits  uint64  `json:"batchCommits,omitempty"`
	BatchFails    uint64  `json:"batchFails,omitempty"`
}

// STMFoldPerf is one cell of the commutative-folding sweep: the
// hotspot counter benchmark at the highest goroutine level on the
// batched lazy path, folding off vs on at each batch bound. Speedup
// is the fold-on throughput over the fold-off cell at the same
// batch; on a single-CPU runner the combiner rarely collects
// multi-member batches, so parity (speedup ≈ 1) is the expected
// floor there, not a regression.
type STMFoldPerf struct {
	CommitBatch   int     `json:"commitBatch"`
	Fold          bool    `json:"fold"`
	CommitsPerSec float64 `json:"commitsPerSec"`
	FoldedCommits uint64  `json:"foldedCommits,omitempty"`
	FoldedWords   uint64  `json:"foldedWords,omitempty"`
	Speedup       float64 `json:"speedup,omitempty"`
}

// STMAdaptivePerf is one phase of the adaptive-control trajectory
// (make bench-adaptive): the tuned runtime's steady-state throughput
// against the best static policy for the phase.
type STMAdaptivePerf struct {
	Phase                 string  `json:"phase"`
	BestStatic            string  `json:"bestStatic"`
	BestCommitsPerSec     float64 `json:"bestCommitsPerSec"`
	AdaptiveCommitsPerSec float64 `json:"adaptiveCommitsPerSec"`
	Ratio                 float64 `json:"ratio"`
	FinalPolicy           string  `json:"finalPolicy"`
}

// STMPerfReport is the machine-readable perf trajectory snapshot
// emitted by `make bench-stm` into BENCH_stm.json.
type STMPerfReport struct {
	Bench       string `json:"bench"`
	Policy      string `json:"policy"`
	Lazy        bool   `json:"lazy"`
	CommitBatch int    `json:"commitBatch,omitempty"`
	Fold        bool   `json:"fold,omitempty"`
	Shards      int    `json:"shards"`
	KWindow     int    `json:"kWindow,omitempty"`
	// Machine stamp: bench-fleet appends reports from several runs
	// (and machines) into one BENCH_stm.json array, so each entry
	// records where and when it was measured.
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"numcpu,omitempty"`
	GoVersion  string            `json:"goVersion,omitempty"`
	Timestamp  string            `json:"timestamp,omitempty"`
	DurationMS int64             `json:"durationMs"`
	Points     []STMPerfPoint    `json:"points"`
	Scenarios  []STMScenarioPerf `json:"scenarios,omitempty"`
	// BatchSweep is the lazy group-commit trajectory: the main bench
	// at the highest goroutine level, CommitBatch swept over
	// 0 (unbatched baseline) and the batch bounds.
	BatchSweep []STMBatchPerf `json:"batchSweep,omitempty"`
	// FoldSweep is the commutative-folding trajectory (STMConfig.Fold
	// / make bench-fold): hotspot at batch 4 and 8, fold off vs on.
	FoldSweep []STMFoldPerf `json:"foldSweep,omitempty"`
	// AdaptiveSweep is the phase-shift convergence trajectory
	// (STMConfig.Adaptive / make bench-adaptive); AdaptiveSwaps is
	// the tuned runtime's SetPolicy count across it.
	AdaptiveSweep []STMAdaptivePerf `json:"adaptiveSweep,omitempty"`
	AdaptiveSwaps uint64            `json:"adaptiveSwaps,omitempty"`
	// TraceSweep is the trace-format comparison (STMConfig.TraceSweep
	// / make bench-trace): both on-disk formats encoding the same
	// recorded hotspot trace, with bytes/record and codec throughput.
	TraceSweep []TraceFormatPerf `json:"traceSweep,omitempty"`
}

// STMPerf measures commits/sec and abort counts on the main benchmark
// at the configured goroutine levels (default 1/4/8), plus a
// per-scenario commits/sec sweep over the whole registry at a fixed
// level — the recorded perf trajectory for CI.
func STMPerf(bench string, cfg STMConfig) (*STMPerfReport, error) {
	levels := cfg.Goroutines
	if len(levels) == 0 {
		levels = []int{1, 4, 8}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 200 * time.Millisecond
	}
	rep := &STMPerfReport{
		Bench:       bench,
		Policy:      cfg.Policy.String(),
		Lazy:        cfg.Lazy,
		CommitBatch: cfg.CommitBatch,
		Fold:        cfg.Fold,
		KWindow:     cfg.KWindow,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		DurationMS:  cfg.Duration.Milliseconds(),
	}
	for _, n := range levels {
		sCfg := stmRuntimeConfig(cfg, strategy.UniformRW{})
		rn, err := stmScenario(bench, cfg.Length, cfg.Delta, n, sCfg)
		if err != nil {
			return nil, err
		}
		rep.Shards = rn.Runtime().Shards()
		m, err := measureSTM(rn, n, cfg.Duration, cfg.Seed)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, STMPerfPoint{
			Goroutines:      n,
			CommitsPerSec:   m.CommitsPerSec,
			Aborts:          m.Stats["aborts"],
			AbortsPerCommit: m.AbortsPerCommit,
			Kills:           m.Stats["kills"],
			KEstimate:       m.KEstimate,
			CommitP50Ns:     m.CommitP50Ns,
			CommitP99Ns:     m.CommitP99Ns,
		})
	}
	// Per-scenario sweep: every registry workload at a fixed level,
	// half the main duration (the trajectory, not a deep benchmark).
	const scenarioLevel = 4
	scenarioDur := cfg.Duration / 2
	if cfg.Quick {
		return rep, nil
	}
	for _, name := range scenario.Names() {
		sCfg := stmRuntimeConfig(cfg, strategy.UniformRW{})
		rn, err := stmScenario(name, cfg.Length, cfg.Delta, scenarioLevel, sCfg)
		if err != nil {
			return nil, err
		}
		m, err := measureSTM(rn, scenarioLevel, scenarioDur, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: perf scenario %q: %w", name, err)
		}
		rep.Scenarios = append(rep.Scenarios, STMScenarioPerf{
			Scenario:        name,
			Goroutines:      scenarioLevel,
			CommitsPerSec:   m.CommitsPerSec,
			AbortsPerCommit: m.AbortsPerCommit,
			CommitP50Ns:     m.CommitP50Ns,
			CommitP99Ns:     m.CommitP99Ns,
		})
	}
	// Lazy group-commit sweep at the highest level: batch=0 is the
	// unbatched lazy baseline the batched cells are read against.
	batchLevel := levels[len(levels)-1]
	for _, bsz := range []int{0, 2, 4, 8} {
		sCfg := stmRuntimeConfig(cfg, strategy.UniformRW{})
		sCfg.Lazy = true
		sCfg.CommitBatch = bsz
		rn, err := stmScenario(bench, cfg.Length, cfg.Delta, batchLevel, sCfg)
		if err != nil {
			return nil, err
		}
		m, err := measureSTM(rn, batchLevel, scenarioDur, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: perf batch sweep %d: %w", bsz, err)
		}
		rep.BatchSweep = append(rep.BatchSweep, STMBatchPerf{
			CommitBatch:   bsz,
			CommitsPerSec: m.CommitsPerSec,
			CommitP50Ns:   m.CommitP50Ns,
			CommitP99Ns:   m.CommitP99Ns,
			Batches:       m.Stats["batches"],
			BatchCommits:  m.Stats["batchCommits"],
			BatchFails:    m.Stats["batchFails"],
		})
	}
	// Commutative-folding sweep: the hotspot counter shape (all-delta
	// writes, the folding fast path) at the highest level, fold off vs
	// on per batch bound, so the recorded trajectory pins the speedup
	// the acceptance gate reads. Think time is zeroed to keep the
	// cells commit-bound — the regime folding targets; with think time
	// in the loop the hot word is idle most of the time and both cells
	// measure the scenario, not the commit path.
	if cfg.Fold {
		for _, bsz := range []int{4, 8} {
			var base float64
			for _, fold := range []bool{false, true} {
				sCfg := stmRuntimeConfig(cfg, strategy.UniformRW{})
				sCfg.Lazy = true
				sCfg.CommitBatch = bsz
				sCfg.FoldCommutative = fold
				sc, err := scenario.ByName("hotspot", scenario.Options{
					Workers: batchLevel,
					Length:  cfg.Length,
					Delta:   cfg.Delta,
					Think:   dist.Constant{V: 0},
				})
				if err != nil {
					return nil, err
				}
				rn := scenario.NewSTMRunner(sc, sCfg)
				// Full duration, not the trajectory half: the A/B gate
				// reads these cells, so they get the lowest-variance
				// window the snapshot budget allows.
				m, err := measureSTM(rn, batchLevel, cfg.Duration, cfg.Seed)
				if err != nil {
					return nil, fmt.Errorf("experiments: perf fold sweep batch %d fold=%v: %w", bsz, fold, err)
				}
				cell := STMFoldPerf{
					CommitBatch:   bsz,
					Fold:          fold,
					CommitsPerSec: m.CommitsPerSec,
					FoldedCommits: m.Stats["foldedCommits"],
					FoldedWords:   m.Stats["foldedWords"],
				}
				if fold && base > 0 {
					cell.Speedup = m.CommitsPerSec / base
				} else if !fold {
					base = m.CommitsPerSec
				}
				rep.FoldSweep = append(rep.FoldSweep, cell)
			}
		}
	}
	// Adaptive convergence trajectory (make bench-adaptive): the
	// phase-shift experiment at the highest level.
	if cfg.Adaptive {
		arep, err := AdaptiveConvergence(AdaptiveConfig{
			Goroutines:    batchLevel,
			PhaseDuration: cfg.Duration,
			Length:        cfg.Length,
			Seed:          cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: perf adaptive sweep: %w", err)
		}
		for _, pr := range arep.Phases {
			rep.AdaptiveSweep = append(rep.AdaptiveSweep, STMAdaptivePerf{
				Phase:                 pr.Phase,
				BestStatic:            pr.BestStatic,
				BestCommitsPerSec:     pr.BestOpsPerSec,
				AdaptiveCommitsPerSec: pr.AdaptiveOpsPerSec,
				Ratio:                 pr.Ratio,
				FinalPolicy:           pr.FinalPolicy,
			})
		}
		rep.AdaptiveSwaps = arep.Swaps
	}
	// Trace-format sweep (make bench-trace): both on-disk formats over
	// the same recorded hotspot capture.
	if cfg.TraceSweep {
		cells, err := TraceFormatSweep(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: perf trace sweep: %w", err)
		}
		rep.TraceSweep = cells
	}
	return rep, nil
}
