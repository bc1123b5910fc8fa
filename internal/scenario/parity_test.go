// Scenario-parity suite (external test package so it can pull in the
// HTM adapter without an import cycle): every registered scenario
// runs on BOTH backends — the cycle-level HTM simulator and the
// real-goroutine STM runtime — and each run must satisfy the same
// committed-state invariant (stack depth, queue occupancy, object
// sums vs tallies). CI runs this under -race at GOMAXPROCS=1 and 4.
package scenario_test

import (
	"os"
	"strconv"
	"testing"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/htm"
	"txconflict/internal/rng"
	"txconflict/internal/scenario"
	"txconflict/internal/stm"
	"txconflict/internal/strategy"
	"txconflict/internal/workload"
)

// parityBatch is the Config.CommitBatch the batched-lazy parity and
// equivalence cells run with. CI sets it per matrix cell via
// STM_COMMIT_BATCH (the scenario-parity job's -batch knob): a
// positive value pins the batch bound, 0 skips the batched cells
// (they would duplicate the plain lazy runs), and unset defaults
// to 4.
func parityBatch() int {
	if s := os.Getenv("STM_COMMIT_BATCH"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 0 {
			return n
		}
	}
	return 4
}

// htmParity runs one scenario on the simulator and checks its
// invariant against the drained directory image.
func htmParity(t *testing.T, name string, pol core.Policy) {
	t.Helper()
	sc, err := scenario.ByName(name, scenario.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	w := workload.FromScenario(sc)
	p := htm.DefaultParams(8)
	p.Policy = pol
	p.Strategy = strategy.UniformRW{}
	p.Seed = 42
	m := htm.NewMachine(p, w)
	cycles := uint64(300_000)
	if testing.Short() {
		cycles = 120_000
	}
	m.Run(cycles)
	met := m.Drain()
	if met.Commits == 0 {
		t.Fatalf("%s/HTM: no commits", name)
	}
	if err := w.Check(m.Dir.ReadWord, met.PerCoreCommits); err != nil {
		t.Fatalf("%s/HTM (%v): %v", name, pol, err)
	}
}

// stmParity runs the same scenario as real transactions and checks
// the same invariant against the committed arena.
func stmParity(t *testing.T, name string, cfg stm.Config) {
	t.Helper()
	const workers = 4
	sc, err := scenario.ByName(name, scenario.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	rn := scenario.NewSTMRunner(sc, cfg)
	d := 50 * time.Millisecond
	if testing.Short() {
		d = 20 * time.Millisecond
	}
	res := rn.Drive(workers, d, 42)
	if res.Ops() == 0 {
		t.Fatalf("%s/STM: no transactions completed", name)
	}
	if err := rn.Check(res.PerWorker); err != nil {
		t.Fatalf("%s/STM (%s): %v", name, cfg.String(), err)
	}
}

// TestScenarioParity is the cross-backend invariant matrix: each
// registered scenario on the HTM simulator (requestor wins and
// aborts) and on the STM runtime (eager and lazy locking).
func TestScenarioParity(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			htmParity(t, name, core.RequestorWins)
			if !testing.Short() {
				htmParity(t, name, core.RequestorAborts)
			}
			stmParity(t, name, stm.DefaultConfig())
			if !testing.Short() {
				lazy := stm.DefaultConfig()
				lazy.Lazy = true
				stmParity(t, name, lazy)
				if b := parityBatch(); b > 0 {
					batched := lazy
					batched.CommitBatch = b
					stmParity(t, name, batched)
				}
			}
		})
	}
}

// stmModes are the runtime configurations the equivalence suite
// compares: eager encounter-time locking, lazy (TL2) commit locking,
// lazy with the group-commit combiner, and the combiner with
// commutative delta folding. The fold cell rides the batched one
// (folding only exists inside the combiner); STM_FOLD=0 drops it from
// a CI matrix cell.
func stmModes() []struct {
	name string
	cfg  stm.Config
} {
	eager := stm.DefaultConfig()
	lazy := eager
	lazy.Lazy = true
	modes := []struct {
		name string
		cfg  stm.Config
	}{
		{"eager", eager},
		{"lazy", lazy},
	}
	if b := parityBatch(); b > 0 {
		batched := lazy
		batched.CommitBatch = b
		modes = append(modes, struct {
			name string
			cfg  stm.Config
		}{"lazy+batched", batched})
		if os.Getenv("STM_FOLD") != "0" {
			folded := batched
			folded.FoldCommutative = true
			modes = append(modes, struct {
				name string
				cfg  stm.Config
			}{"lazy+batched+fold", folded})
		}
	}
	return modes
}

// TestCrossModeEquivalence is the cross-mode property suite for the
// batched commit path: every registered scenario, on a seeded
// deterministic schedule (one worker, a fixed transaction count),
// must leave a byte-identical committed arena under eager, lazy, and
// lazy+batched configurations — same words, same object sums. A
// single worker makes the schedule a pure function of the seed, so
// any divergence is a real semantic difference between the commit
// paths (a lost write, a double write-back, a skipped program).
func TestCrossModeEquivalence(t *testing.T) {
	const txs = 300
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var ref []uint64
			var refMode string
			for _, mode := range stmModes() {
				sc, err := scenario.ByName(name, scenario.Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				rn := scenario.NewSTMRunner(sc, mode.cfg)
				r := rng.New(12345)
				for i := 0; i < txs; i++ {
					rn.RunOne(0, r)
				}
				perWorker := []uint64{txs}
				if err := rn.Check(perWorker); err != nil {
					t.Fatalf("%s: invariant: %v", mode.name, err)
				}
				words := make([]uint64, sc.Words())
				for i := range words {
					words[i] = rn.Runtime().ReadCommitted(i)
				}
				if ref == nil {
					ref, refMode = words, mode.name
					continue
				}
				if len(words) != len(ref) {
					t.Fatalf("%s arena has %d words, %s has %d", mode.name, len(words), refMode, len(ref))
				}
				for i := range words {
					if words[i] != ref[i] {
						t.Fatalf("%s diverges from %s at word %d: %d vs %d",
							mode.name, refMode, i, words[i], ref[i])
					}
				}
			}
		})
	}
}

// TestCrossModeEquivalenceContended drives the same three modes with
// real contention (the deterministic test above cannot exercise
// batching's multi-member rounds or conflict paths) and holds every
// mode to the scenario's committed-state invariant.
func TestCrossModeEquivalenceContended(t *testing.T) {
	if testing.Short() {
		t.Skip("contended equivalence is covered by TestScenarioParity in short mode")
	}
	const workers = 4
	d := 40 * time.Millisecond
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, mode := range stmModes() {
				sc, err := scenario.ByName(name, scenario.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				rn := scenario.NewSTMRunner(sc, mode.cfg)
				res := rn.Drive(workers, d, 99)
				if res.Ops() == 0 {
					t.Fatalf("%s: no transactions completed", mode.name)
				}
				if err := rn.Check(res.PerWorker); err != nil {
					t.Fatalf("%s (%s): %v", mode.name, mode.cfg.String(), err)
				}
			}
		})
	}
}

// TestCrossModePolicyChurn holds the equivalence suite's invariant
// under a live control plane: every scenario runs contended on all
// three commit modes while a churner goroutine flips the runtime
// policy mid-run — resolution, strategy, hybrid rule, combiner lane —
// as fast as it can. Whatever mix of policies
// individual transactions latched, the committed state must still
// satisfy the scenario's invariant: policy swaps steer contention,
// they never change what a committed transaction wrote.
func TestCrossModePolicyChurn(t *testing.T) {
	const workers = 4
	d := 40 * time.Millisecond
	if testing.Short() {
		d = 15 * time.Millisecond
	}
	churn := []stm.Policy{
		{Rule: core.Rule{Policy: core.RequestorWins, Strategy: strategy.UniformRW{}, BackoffFactor: 1}, MaxRetries: 128},
		{Rule: core.Rule{Policy: core.RequestorAborts, Strategy: strategy.ExpRA{}, BackoffFactor: 1}, MaxRetries: 128},
		{Rule: core.Rule{Policy: core.RequestorWins, Hybrid: true, Strategy: strategy.Hybrid{}, BackoffFactor: 1}, CommitBatch: 4, FoldCommutative: true, MaxRetries: 128},
		{Rule: core.Rule{Policy: core.RequestorWins, BackoffFactor: 2}, CommitBatch: 2, MaxRetries: 128},
		{Rule: core.Rule{Policy: core.RequestorWins, BackoffFactor: 1}, CommitBatch: 4, FoldCommutative: true, MaxRetries: 128},
	}
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, mode := range stmModes() {
				sc, err := scenario.ByName(name, scenario.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				rn := scenario.NewSTMRunner(sc, mode.cfg)
				rt := rn.Runtime()
				stop := make(chan struct{})
				done := make(chan struct{})
				go func() {
					defer close(done)
					// Throttled so the churner cannot starve the
					// workers on a single P: ~50 swaps/ms is still far
					// beyond any real control loop.
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
							rt.SetPolicy(churn[i%len(churn)])
							time.Sleep(20 * time.Microsecond)
						}
					}
				}()
				res := rn.Drive(workers, d, 77)
				close(stop)
				<-done
				if res.Ops() == 0 {
					t.Fatalf("%s: no transactions completed under churn", mode.name)
				}
				if rt.PolicySwaps() == 0 {
					t.Fatalf("%s: churner never swapped", mode.name)
				}
				if err := rn.Check(res.PerWorker); err != nil {
					t.Fatalf("%s (%s) after %d policy swaps: %v",
						mode.name, mode.cfg.String(), rt.PolicySwaps(), err)
				}
			}
		})
	}
}

// TestSameSeedSameprograms pins the cross-backend contract: with the
// same seed, the scenario feeds byte-identical op streams to both
// adapters (the HTM side is a pure compilation of the scenario
// program).
func TestSameSeedSamePrograms(t *testing.T) {
	mk := func() (*scenario.Scenario, *rng.Rand) {
		sc, err := scenario.ByName("hotspot", scenario.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sc, rng.New(99)
	}
	scA, rA := mk()
	scB, rB := mk()
	for i := 0; i < 200; i++ {
		pa := scA.Next(i%2, rA)
		pb := scB.Next(i%2, rB)
		if len(pa.Ops) != len(pb.Ops) || pa.Think != pb.Think {
			t.Fatalf("program %d shape mismatch", i)
		}
		for j := range pa.Ops {
			if pa.Ops[j] != pb.Ops[j] {
				t.Fatalf("program %d op %d mismatch: %+v vs %+v", i, j, pa.Ops[j], pb.Ops[j])
			}
		}
	}
}
