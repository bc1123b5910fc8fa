package experiments

import (
	"fmt"
	"runtime"
	"time"

	"txconflict/internal/core"
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
	Stats           map[string]uint64
}

// measureSTM runs n goroutines against the scenario runner for
// roughly d, verifies the scenario invariant, and reads the runtime
// counters afterwards.
func measureSTM(rn *scenario.STMRunner, n int, d time.Duration, seed uint64) (stmMeasurement, error) {
	res := rn.Drive(n, d, seed)
	if err := rn.Check(res.PerWorker); err != nil {
		return stmMeasurement{}, err
	}
	snap := rn.Runtime().Stats.Snapshot()
	commits := snap["commits"]
	m := stmMeasurement{Stats: snap}
	if res.ElapsedSec > 0 {
		m.CommitsPerSec = float64(commits) / res.ElapsedSec
	}
	if commits > 0 {
		m.AbortsPerCommit = float64(snap["aborts"]) / float64(commits)
	}
	return m, nil
}

// STMAblations runs the runtime-level design ablations on one
// benchmark at one goroutine count on the real STM: locking mode,
// batched commit, policy, the Section 9 hybrid switch, the
// mean-profiled strategy, Corollary 2 backoff, and the NO_DELAY
// baseline. The base configuration is pinned (eager requestor-wins,
// RRW) so every row varies exactly one design choice against the same
// baseline; cfg supplies only Duration, Seed, Length and Delta.
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
		{"baseline RW + RRW", func(c *stm.Config) {}},
		{"lazy (TL2 commit locking)", func(c *stm.Config) { c.Lazy = true }},
		{"lazy batched commit (CommitBatch=8)", func(c *stm.Config) {
			c.Lazy = true
			c.CommitBatch = 8
		}},
		{"policy RA + RRA", func(c *stm.Config) {
			c.Rule.Policy = core.RequestorAborts
			c.Strategy = strategy.ExpRA{}
		}},
		{"hybrid policy (Sec 9)", func(c *stm.Config) {
			c.Hybrid = true
			c.Strategy = strategy.Hybrid{}
		}},
		{"mean-profiled strategy", func(c *stm.Config) {
			c.UseMeanProfile = true
			c.Strategy = strategy.MeanRW{}
		}},
		{"Cor2 backoff x2", func(c *stm.Config) { c.BackoffFactor = 2 }},
		{"NO_DELAY", func(c *stm.Config) { c.Strategy = nil }},
	}
	t := &report.Table{
		Title:   fmt.Sprintf("STM ablations (%s, %d goroutines)", bench, goroutines),
		Columns: []string{"variant", "commits/s", "aborts/commit", "kills", "extensions"},
	}
	for _, v := range variants {
		sCfg := stm.Config{Policy: stm.Policy{
			Rule:        core.Rule{Policy: core.RequestorWins, Strategy: strategy.UniformRW{}, BackoffFactor: 1},
			CleanupCost: 2 * time.Microsecond,
			MaxRetries:  256,
		}}
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
