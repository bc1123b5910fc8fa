package experiments

import (
	"fmt"
	"runtime"
	"time"

	"txconflict/internal/htm"
	"txconflict/internal/report"
	"txconflict/internal/scenario"
	"txconflict/internal/strategy"
	"txconflict/internal/trace"
	"txconflict/internal/workload"
)

// RecordTrace runs one recorded measurement of a registry scenario on
// the real-goroutine STM runtime and returns the captured trace: the
// "measure" leg of the Section 1 profile-to-simulation loop. The
// scenario invariant is verified before the trace is handed back, so
// a returned trace always comes from a serializable run.
func RecordTrace(bench string, cfg STMConfig, workers int, d time.Duration) (*trace.Trace, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
	}
	if d <= 0 {
		d = cfg.Duration
		if d <= 0 {
			d = 200 * time.Millisecond
		}
	}
	sc, err := scenario.ByName(bench, scenario.Options{Workers: workers, Length: cfg.Length})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	sCfg := stmRuntimeConfig(cfg, strategy.UniformRW{})
	rec := trace.NewRecorder(sc.Name(), workers, sCfg.String())
	// Stamp the machine's measured wall-ns per compute unit before the
	// run, so the capture carries its own unit→cycle conversion.
	rec.SetUnitNs(scenario.CalibrateUnitNs())
	sCfg.Trace = rec
	rn := scenario.NewSTMRunner(sc, sCfg)
	res := rn.Drive(workers, d, cfg.Seed)
	if err := rn.Check(res.PerWorker); err != nil {
		return nil, fmt.Errorf("experiments: recorded run: %w", err)
	}
	tr := rec.Snapshot()
	if tr.Commits() == 0 {
		return nil, fmt.Errorf("experiments: recorded run of %q committed nothing in %v", bench, d)
	}
	return tr, nil
}

// FidelityConfig tunes the TraceFidelity comparison.
type FidelityConfig struct {
	// Workers is the replay concurrency on both backends (default:
	// the trace's recorded worker count, capped at GOMAXPROCS).
	Workers int
	// Cycles is the simulated duration of the HTM leg.
	Cycles uint64
	// Duration is the wall-clock duration of the STM leg.
	Duration time.Duration
	// Seed feeds both backends' random streams.
	Seed uint64
	// STM carries the replay runtime's policy and mode (Resolution,
	// Lazy, ...) — start from DefaultSTMConfig and set them to the
	// recorded run's configuration, or the comparison measures a config
	// mismatch, not fidelity.
	STM STMConfig
}

// TraceFidelity is the "validate" leg of the loop: replay a recorded
// trace's exact footprints on the HTM simulator and on the STM
// runtime, verify the replay invariant on both committed images, and
// tabulate recorded vs simulated vs re-measured throughput and abort
// behaviour. Simulator throughput is in committed transactions per
// 10⁹ simulated cycles (ops/s at 1 GHz), the two real-time rows in
// committed transactions per wall-clock second — the comparison
// currency across the gap is abort rate and relative shape, as in
// the paper's Graphite-vs-real validation.
func TraceFidelity(tr *trace.Trace, cfg FidelityConfig) (*report.Table, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = tr.Workers
		if max := runtime.GOMAXPROCS(0); workers > max {
			workers = max
		}
		if workers < 1 {
			workers = 1
		}
	}
	if cfg.Cycles == 0 {
		cfg.Cycles = 500_000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 100 * time.Millisecond
	}
	prof := trace.NewProfile(tr)

	// HTM leg: the replay compiled to simulator ops, with recorded
	// compute units converted to simulated cycles via the trace's
	// calibration header (uncalibrated traces fall back to 1:1).
	simSc, err := trace.ReplayScenarioCycles(tr, scenario.Options{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	w := workload.FromScenario(simSc)
	p := htm.DefaultParams(workers)
	p.Policy = cfg.STM.Rule.Policy
	p.Strategy = strategy.UniformRW{}
	p.Seed = cfg.Seed
	m := htm.NewMachine(p, w)
	met := m.Run(cfg.Cycles)
	fin := m.Drain()
	if err := w.Check(m.Dir.ReadWord, fin.PerCoreCommits); err != nil {
		return nil, fmt.Errorf("experiments: HTM replay: %w", err)
	}

	// STM leg: a fresh replay instance as real transactions.
	stmSc, err := trace.ReplayScenario(tr, scenario.Options{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	sCfg := stmRuntimeConfig(cfg.STM, strategy.UniformRW{})
	rn := scenario.NewSTMRunner(stmSc, sCfg)
	res := rn.Drive(workers, cfg.Duration, cfg.Seed)
	if err := rn.Check(res.PerWorker); err != nil {
		return nil, fmt.Errorf("experiments: STM replay: %w", err)
	}
	snap := rn.Runtime().Stats.Snapshot()

	simCommitsPerSec := met.OpsPerSecond(1)
	var simAbortsPerCommit float64
	if met.Commits > 0 {
		simAbortsPerCommit = float64(met.Aborts) / float64(met.Commits)
	}
	var stmCommitsPerSec, stmAbortsPerCommit float64
	if res.ElapsedSec > 0 {
		stmCommitsPerSec = float64(snap["commits"]) / res.ElapsedSec
	}
	if snap["commits"] > 0 {
		stmAbortsPerCommit = float64(snap["aborts"]) / float64(snap["commits"])
	}

	t := &report.Table{
		Title: fmt.Sprintf("trace fidelity (%s): recorded vs simulated vs replayed, workers=%d",
			tr.Scenario, workers),
		Columns: []string{"source", "commits", "commits/s", "aborts/commit", "kills"},
	}
	t.AddRow("recorded (STM, original run)", prof.Commits, prof.CommitsPerSec,
		prof.AbortsPerCommit, prof.KillsIssued)
	t.AddRow("simulator (HTM, replayed)", met.Commits, simCommitsPerSec,
		simAbortsPerCommit, fin.Conflicts)
	t.AddRow("measured (STM, replayed)", snap["commits"], stmCommitsPerSec,
		stmAbortsPerCommit, snap["kills"])
	if stmCommitsPerSec > 0 {
		t.AddNote("sim-vs-real throughput ratio %.3g (sim at 1 GHz, %d cycles; real %v wall clock)",
			simCommitsPerSec/stmCommitsPerSec, cfg.Cycles, cfg.Duration)
	}
	t.AddNote("abort-rate delta sim-real = %+.3f aborts/commit", simAbortsPerCommit-stmAbortsPerCommit)
	if tr.UnitNs > 0 {
		t.AddNote("sim leg calibrated: %.3g ns/unit recorded, units replayed as cycles ×%.3g", tr.UnitNs, tr.CycleScale())
	} else {
		t.AddNote("sim leg uncalibrated (pre-calibration trace): 1 unit = 1 cycle")
	}
	t.AddNote("trace: %d records, %d committed, mean len %.1f, mean footprint %.1fr/%.1fw",
		prof.Records, prof.Commits, prof.MeanLength, prof.MeanReads, prof.MeanWrites)
	return t, nil
}
