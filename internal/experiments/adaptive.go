package experiments

import (
	"fmt"
	"strings"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/report"
	"txconflict/internal/scenario"
	"txconflict/internal/stm"
	"txconflict/internal/strategy"
	"txconflict/internal/tune"
)

// AdaptiveConfig tunes the AdaptiveConvergence harness.
type AdaptiveConfig struct {
	// Phases is the workload sequence the adaptive runtime lives
	// through without restarting; empty defaults to the
	// readmostly -> hotspot shift (low-conflict to chained-conflict).
	Phases []string
	// Goroutines drives each phase (default 4).
	Goroutines int
	// PhaseDuration is the wall time per phase; the first half is the
	// controller's convergence window, the second half is measured.
	PhaseDuration time.Duration
	// TuneInterval paces the control loop (default PhaseDuration/20).
	TuneInterval time.Duration
	// Tolerance is the convergence criterion: the adaptive runtime
	// must reach at least (1 - Tolerance) of the best static
	// candidate's measured throughput in every phase (default 0.10).
	Tolerance float64
	// Length overrides the scenarios' length sampler; Seed feeds all
	// streams.
	Length dist.Sampler
	Seed   uint64
}

func (cfg *AdaptiveConfig) defaults() {
	if len(cfg.Phases) == 0 {
		cfg.Phases = []string{"readmostly", "hotspot"}
	}
	if cfg.Goroutines <= 0 {
		cfg.Goroutines = 4
	}
	if cfg.PhaseDuration <= 0 {
		cfg.PhaseDuration = 400 * time.Millisecond
	}
	if cfg.TuneInterval <= 0 {
		cfg.TuneInterval = cfg.PhaseDuration / 20
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.10
	}
}

// adaptiveCandidate is one static policy the adaptive runtime is read
// against. All candidates share the lazy structural config — the same
// structure the adaptive runtime runs, so the comparison isolates the
// dynamic half.
type adaptiveCandidate struct {
	name   string
	adjust func(c *stm.Config)
}

func adaptiveCandidates() []adaptiveCandidate {
	return []adaptiveCandidate{
		{"rw+rrw", func(c *stm.Config) {
			c.Policy = core.RequestorWins
			c.Strategy = strategy.UniformRW{}
		}},
		{"ra+rra", func(c *stm.Config) {
			c.Policy = core.RequestorAborts
			c.Strategy = strategy.ExpRA{}
		}},
		{"rw+batch4", func(c *stm.Config) {
			c.Policy = core.RequestorWins
			c.Strategy = strategy.UniformRW{}
			c.CommitBatch = 4
		}},
		{"nodelay", func(c *stm.Config) {
			c.Policy = core.RequestorWins
			c.Strategy = nil
		}},
	}
}

// adaptiveBaseConfig is the shared structural half: lazy locking (so
// the controller may open the combiner lane) and the windowed
// estimator the k-driven rules read.
func adaptiveBaseConfig() stm.Config {
	return stm.Config{
		Lazy:          true,
		KWindow:       64,
		CleanupCost:   2 * time.Microsecond,
		BackoffFactor: 1,
		MaxRetries:    256,
	}
}

// AdaptivePhaseResult is one phase of the convergence experiment.
type AdaptivePhaseResult struct {
	Phase string `json:"phase"`
	// Static maps candidate name to measured steady-state ops/sec on
	// a fresh runtime pinned to that policy.
	Static map[string]float64 `json:"static"`
	// BestStatic names the winning candidate; BestOpsPerSec is its
	// throughput.
	BestStatic    string  `json:"bestStatic"`
	BestOpsPerSec float64 `json:"bestOpsPerSec"`
	// AdaptiveOpsPerSec is the shared tuned runtime's throughput over
	// the phase's second half (the controller had the first half to
	// converge).
	AdaptiveOpsPerSec float64 `json:"adaptiveOpsPerSec"`
	// Ratio is adaptive over best static (1.0 = matched the oracle).
	Ratio float64 `json:"ratio"`
	// FinalPolicy is what the controller was running when the phase
	// ended.
	FinalPolicy string `json:"finalPolicy"`
}

// AdaptiveReport is the AdaptiveConvergence output.
type AdaptiveReport struct {
	Goroutines int                   `json:"goroutines"`
	PhaseMS    int64                 `json:"phaseMs"`
	Tolerance  float64               `json:"tolerance"`
	Phases     []AdaptivePhaseResult `json:"phases"`
	// Swaps is the shared runtime's SetPolicy count across the whole
	// run; Decisions is the controller's log.
	Swaps     uint64          `json:"swaps"`
	Decisions []tune.Decision `json:"decisions,omitempty"`
	// P99RuleFired reports that the controller's p99 latency-backoff
	// rule demonstrably fired — during the live phases if contention
	// produced a real tail regression, otherwise in the post-run
	// latency drill (canned windows replayed through the live tuner
	// via StepWindow). The firing's decision is in Decisions.
	P99RuleFired bool `json:"p99RuleFired"`
	// Converged reports every phase's Ratio >= 1 - Tolerance.
	Converged bool `json:"converged"`
}

// AdaptiveConvergence phase-shifts a workload under one live runtime
// driven by the internal/tune control loop and reads the result
// against a per-phase oracle of static policies:
//
//   - For each phase, every static candidate runs the phase's
//     scenario on a fresh runtime pinned to that policy; the best
//     measured throughput is the oracle for the phase.
//   - The adaptive runtime runs all phases back to back on one arena
//     — estimator history, policy, and committed state survive the
//     shift, exactly what a deployed self-tuning system faces. Each
//     phase's first half is the controller's convergence window; only
//     the second half is measured.
//
// The experiment converges when the adaptive runtime is within
// Tolerance of the oracle in every phase. Committed-state invariants
// are verified for the static cells and the adaptive run's first
// phase; later adaptive phases run over an arena polluted by earlier
// phases, where scenario invariants no longer apply.
func AdaptiveConvergence(cfg AdaptiveConfig) (*AdaptiveReport, error) {
	cfg.defaults()
	rep := &AdaptiveReport{
		Goroutines: cfg.Goroutines,
		PhaseMS:    cfg.PhaseDuration.Milliseconds(),
		Tolerance:  cfg.Tolerance,
	}

	// Static oracle: fresh runtime per (phase, candidate).
	type phaseOracle struct {
		static map[string]float64
		best   string
		ops    float64
	}
	oracles := make([]phaseOracle, 0, len(cfg.Phases))
	for _, phase := range cfg.Phases {
		po := phaseOracle{static: make(map[string]float64)}
		for _, cand := range adaptiveCandidates() {
			sCfg := adaptiveBaseConfig()
			cand.adjust(&sCfg)
			rn, err := stmScenario(phase, cfg.Length, 0, cfg.Goroutines, sCfg)
			if err != nil {
				return nil, err
			}
			res := rn.Drive(cfg.Goroutines, cfg.PhaseDuration/2, cfg.Seed)
			if err := rn.Check(res.PerWorker); err != nil {
				return nil, fmt.Errorf("experiments: adaptive oracle %s/%s: %w", phase, cand.name, err)
			}
			ops := res.OpsPerSec()
			po.static[cand.name] = ops
			if ops > po.ops {
				po.ops = ops
				po.best = cand.name
			}
		}
		oracles = append(oracles, po)
	}

	// Adaptive run: one runtime across all phases, arena sized for
	// the largest phase, controller running throughout.
	var scs []*scenario.Scenario
	words := 0
	for _, phase := range cfg.Phases {
		sc, err := scenario.ByName(phase, scenario.Options{Workers: cfg.Goroutines, Length: cfg.Length})
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if sc.Words() > words {
			words = sc.Words()
		}
		scs = append(scs, sc)
	}
	aCfg := adaptiveBaseConfig()
	// The controller decides the dynamic half; start from the
	// pair-conflict default so phase shifts force real decisions.
	aCfg.Policy = core.RequestorAborts
	aCfg.Strategy = strategy.ExpRA{}
	rt := stm.New(words, aCfg)
	tn := tune.New(rt, tune.Limits{}, cfg.TuneInterval)
	tn.Start()
	defer tn.Stop()

	for i, sc := range scs {
		rn := scenario.NewSTMRunnerOn(sc, rt)
		warm := rn.Drive(cfg.Goroutines, cfg.PhaseDuration/2, cfg.Seed+uint64(i))
		meas := rn.Drive(cfg.Goroutines, cfg.PhaseDuration/2, cfg.Seed+uint64(i)+100)
		if i == 0 {
			// Only the first phase runs over a pristine arena; sum
			// both halves' per-worker commits for the invariant.
			counts := make([]uint64, len(warm.PerWorker))
			for w := range counts {
				counts[w] = warm.PerWorker[w] + meas.PerWorker[w]
			}
			if err := rn.Check(counts); err != nil {
				return nil, fmt.Errorf("experiments: adaptive phase %s: %w", sc.Name(), err)
			}
		}
		po := oracles[i]
		pr := AdaptivePhaseResult{
			Phase:             sc.Name(),
			Static:            po.static,
			BestStatic:        po.best,
			BestOpsPerSec:     po.ops,
			AdaptiveOpsPerSec: meas.OpsPerSec(),
			FinalPolicy:       rt.Policy().String(),
		}
		if po.ops > 0 {
			pr.Ratio = pr.AdaptiveOpsPerSec / po.ops
		}
		rep.Phases = append(rep.Phases, pr)
	}
	tn.Stop()

	// Latency-regression drill: with the live phases done and the
	// ticker stopped, replay a canned commit-p99 blowout through the
	// tuner (StepWindow: fixed windows, the controller's real
	// accumulated baselines, real policy application). Whether a live
	// tail regression occurs is machine- and load-dependent; the
	// drill makes the p99 backoff rule's arming a reported invariant
	// instead of a lucky draw. Escalating p99 values outrun the
	// controller's EWMA baseline from any starting point, so the rule
	// fires within the cap unless the live run already fired it.
	hasP99 := func() bool {
		for _, d := range tn.Decisions() {
			for _, r := range d.Reasons {
				if strings.Contains(r, "p99") {
					return true
				}
			}
		}
		return false
	}
	drill := func(p99 float64) tune.Window {
		return tune.Window{
			Commits:     1000,
			GraceWaitNs: 100_000, // 10% of DurNs: inside every hysteresis band
			DurNs:       1_000_000,
			Elapsed:     time.Second,
			CommitP50Ns: p99 / 2,
			CommitP99Ns: p99,
		}
	}
	for p99 := 100_000.0; !hasP99() && p99 < 1e12; p99 *= 2 {
		tn.StepWindow(drill(p99))
	}
	rep.P99RuleFired = hasP99()

	rep.Swaps = rt.PolicySwaps()
	rep.Decisions = tn.Decisions()
	rep.Converged = true
	for _, pr := range rep.Phases {
		if pr.Ratio < 1-cfg.Tolerance {
			rep.Converged = false
		}
	}
	return rep, nil
}

// Table renders the report for stmbench -adaptive.
func (r *AdaptiveReport) Table() *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Adaptive convergence (%d goroutines, %dms phases)", r.Goroutines, r.PhaseMS),
		Columns: []string{"phase", "best static", "static ops/s", "adaptive ops/s", "ratio", "final policy"},
	}
	for _, pr := range r.Phases {
		t.AddRow(pr.Phase, pr.BestStatic, pr.BestOpsPerSec, pr.AdaptiveOpsPerSec, pr.Ratio, pr.FinalPolicy)
	}
	t.AddNote("policy swaps: %d, decisions: %d, converged (within %.0f%% of oracle): %v",
		r.Swaps, len(r.Decisions), r.Tolerance*100, r.Converged)
	t.AddNote("p99 backoff rule fired (live or drill): %v", r.P99RuleFired)
	for _, d := range r.Decisions {
		for _, reason := range d.Reasons {
			t.AddNote("decision %d -> %s: %s", d.Seq, d.Policy, reason)
		}
	}
	return t
}
