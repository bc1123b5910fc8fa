// Package experiments glues the substrates into the paper's
// evaluation harnesses: each function regenerates one figure (or its
// STM counterpart) as a report.Table whose shape can be compared
// against the paper. EXPERIMENTS.md records the comparisons.
package experiments

import (
	"fmt"
	"runtime"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/htm"
	"txconflict/internal/metrics"
	"txconflict/internal/report"
	"txconflict/internal/rng"
	"txconflict/internal/scenario"
	"txconflict/internal/stm"
	"txconflict/internal/strategy"
	"txconflict/internal/workload"
)

// Fig3Config tunes the Figure 3 HTM-simulator sweep.
type Fig3Config struct {
	// Threads lists the core counts to sweep (paper: 1..16).
	Threads []int
	// Cycles is the simulated duration per cell.
	Cycles uint64
	// Seed feeds all random streams.
	Seed uint64
}

// DefaultFig3Config mirrors the paper's setup at laptop scale.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		Threads: []int{1, 2, 4, 8, 12, 16},
		Cycles:  2_000_000,
		Seed:    1,
	}
}

// Figure3 regenerates one panel of Figure 3: throughput (ops/s) of
// NO_DELAY, DELAY_TUNED, DELAY_DET, DELAY_RAND across thread counts
// on the HTM simulator under requestor wins, at the simulator's 1 GHz
// convention. Every cell is drained after its measurement window and
// checked against the scenario's committed-state invariant, so each
// regeneration doubles as a serializability test.
func Figure3(bench string, cfg Fig3Config) (*report.Table, error) {
	if len(cfg.Threads) == 0 {
		cfg = DefaultFig3Config()
	}
	tunedProbe, err := workload.ByName(bench, scenario.Options{})
	if err != nil {
		return nil, err
	}
	probeParams := htm.DefaultParams(1)
	tuned := workload.TunedDelay(tunedProbe, probeParams, 512)
	strategies := strategy.Fig3Set(tuned)
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 3 (%s): throughput, ops/s at 1 GHz", bench),
		Columns: []string{"threads"},
	}
	names := []string{"NO_DELAY", "DELAY_TUNED", "DELAY_DET", "DELAY_RAND"}
	t.Columns = append(t.Columns, names...)
	for _, n := range cfg.Threads {
		row := []interface{}{n}
		for _, s := range strategies {
			w, err := workload.ByName(bench, scenario.Options{})
			if err != nil {
				return nil, err
			}
			p := htm.DefaultParams(n)
			p.Strategy = s
			p.Seed = cfg.Seed
			m := htm.NewMachine(p, w)
			met := m.Run(cfg.Cycles)
			row = append(row, met.OpsPerSecond())
			fin := m.Drain()
			if err := w.Check(m.Dir.ReadWord, fin.PerCoreCommits); err != nil {
				return nil, fmt.Errorf("experiments: %s at %d threads (%v): %w", bench, n, s, err)
			}
		}
		t.AddRow(row...)
	}
	t.AddNote("tuned delay = %.1f cycles (average isolated fast-path length)", tuned)
	t.AddNote("policy %v, %d cycles per cell, seed %d", probeParams.Policy, cfg.Cycles, cfg.Seed)
	return t, nil
}

// STMConfig tunes the real-goroutine throughput benchmarks (the
// Graphite-experiment analogue on actual parallel hardware).
type STMConfig struct {
	// Config is the runtime every cell is built on: its policy and its
	// structural field Lazy. Each harness fills in its own Strategy and
	// a fresh metrics plane per cell (stmRuntimeConfig).
	stm.Config
	// Goroutines lists the concurrency levels.
	Goroutines []int
	// Duration per cell.
	Duration time.Duration
	// Length overrides the scenario's default transaction-length
	// sampler (the -dist flag); nil keeps the scenario default.
	Length dist.Sampler
	// Seed feeds the per-goroutine streams.
	Seed uint64
}

// DefaultSTMConfig sweeps up to the machine's parallelism on an eager
// requestor-wins runtime with a 2 µs cleanup cost and 256 optimistic
// retries.
func DefaultSTMConfig() STMConfig {
	max := runtime.GOMAXPROCS(0)
	levels := []int{1}
	for n := 2; n < max; n *= 2 {
		levels = append(levels, n)
	}
	if max > 1 {
		levels = append(levels, max)
	}
	return STMConfig{
		Config: stm.Config{Policy: stm.Policy{
			Rule:        core.Rule{Policy: core.RequestorWins},
			CleanupCost: 2 * time.Microsecond,
			MaxRetries:  256,
		}},
		Goroutines: levels,
		Duration:   200 * time.Millisecond,
		Seed:       1,
	}
}

// stmScenario instantiates a registry scenario sized for the given
// worker count on a fresh STM runtime.
func stmScenario(bench string, length dist.Sampler, workers int, cfg stm.Config) (*scenario.STMRunner, error) {
	sc, err := scenario.ByName(bench, scenario.Options{Workers: workers, Length: length})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return scenario.NewSTMRunner(sc, cfg), nil
}

// stmRuntimeConfig is the stm.Config of one cell: cfg's runtime with
// strategy s and a metrics plane of its own (phase timers at
// metrics.DefaultSampleN), so each measured cell reads its own latency
// quantiles and abort taxonomy without cross-cell bleed.
func stmRuntimeConfig(cfg STMConfig, s core.Strategy) stm.Config {
	c := cfg.Config
	c.Strategy = s
	c.Metrics = metrics.NewPlane(16, metrics.DefaultSampleN)
	return c
}

// stmStrategies returns the Figure 3 strategy set for the STM, with
// the tuned delay expressed in nanoseconds.
func stmStrategies(tunedNs float64) []core.Strategy {
	return []core.Strategy{
		nil,
		strategy.Fixed{X: tunedNs},
		strategy.Deterministic{},
		strategy.UniformRW{},
	}
}

// tuneSTM measures the mean uncontended op latency (ns) for the
// DELAY_TUNED baseline: one worker executing the scenario in
// isolation.
func tuneSTM(bench string, cfg STMConfig) (float64, error) {
	sCfg := stmRuntimeConfig(cfg, nil)
	sCfg.MaxRetries = 64
	rn, err := stmScenario(bench, cfg.Length, 1, sCfg)
	if err != nil {
		return 0, err
	}
	r := rng.New(cfg.Seed)
	const ops = 3000
	start := time.Now()
	for i := 0; i < ops; i++ {
		rn.RunOne(0, r)
	}
	return float64(time.Since(start).Nanoseconds()) / ops, nil
}

// STMThroughput regenerates the Figure 3 analogue on the real
// STM runtime: ops/s for the four delay strategies across goroutine
// counts. Every cell runs on a fresh arena and is checked against the
// scenario invariant after it stops.
func STMThroughput(bench string, cfg STMConfig) (*report.Table, error) {
	if len(cfg.Goroutines) == 0 {
		cfg = DefaultSTMConfig()
	}
	tuned, err := tuneSTM(bench, cfg)
	if err != nil {
		return nil, err
	}
	stratNames := []string{"NO_DELAY", "DELAY_TUNED", "DELAY_DET", "DELAY_RAND"}
	t := &report.Table{
		Title:   fmt.Sprintf("STM throughput (%s): ops/s, %v", bench, cfg.Rule.Policy),
		Columns: append([]string{"goroutines"}, stratNames...),
	}
	for _, n := range cfg.Goroutines {
		row := []interface{}{n}
		for _, s := range stmStrategies(tuned) {
			rn, err := stmScenario(bench, cfg.Length, n, stmRuntimeConfig(cfg, s))
			if err != nil {
				return nil, err
			}
			res := rn.Drive(n, cfg.Duration, cfg.Seed)
			if err := rn.Check(res.PerWorker); err != nil {
				return nil, fmt.Errorf("experiments: %s at %d goroutines: %w", bench, n, err)
			}
			row = append(row, res.OpsPerSec())
		}
		t.AddRow(row...)
	}
	t.AddNote("tuned delay = %.0f ns (mean uncontended op latency)", tuned)
	return t, nil
}
