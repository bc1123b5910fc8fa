package stm

import (
	"errors"
	"sync"
	"testing"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
)

// TestMetricsPlaneWiring runs real transactions through every commit
// path and checks what the plane counted against what the test knows
// happened: every block commits once, every attempt is observed once
// (on a plane that samples every block), the explicit abort is
// attributed, and the mode's own instruments (combiner drain, phase
// timers) saw traffic.
func TestMetricsPlaneWiring(t *testing.T) {
	modes := []struct {
		name  string
		lazy  bool
		batch int
		fold  bool
	}{
		{"eager", false, 0, false},
		{"lazy", true, 0, false},
		{"lazy-batched", true, 4, false},
		{"lazy-batched-folded", true, 4, true},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			plane := metrics.NewPlane(4, 1)
			cfg := DefaultConfig()
			cfg.Lazy = m.lazy
			cfg.CommitBatch = m.batch
			cfg.FoldCommutative = m.fold
			cfg.Metrics = plane
			rt := New(16, cfg)
			if rt.Metrics() != plane {
				t.Fatal("Metrics() accessor lost the plane")
			}

			const workers, txPerWorker = 4, 300
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rng.New(uint64(100 + w))
					for i := 0; i < txPerWorker; i++ {
						_ = rt.AtomicWorker(w, r, func(tx *Tx) error {
							tx.Add(0, 1) // hot word: real conflicts
							tx.Store(1+w, tx.Load(1+w)+1)
							return nil
						})
					}
				}(w)
			}
			wg.Wait()

			errBoom := errors.New("boom")
			if err := rt.Atomic(rng.New(9), func(tx *Tx) error {
				tx.Store(8, 1)
				return errBoom
			}); !errors.Is(err, errBoom) {
				t.Fatalf("user abort returned %v", err)
			}

			s := plane.Snapshot()
			counts := s.Counts()
			if counts["commits"] != workers*txPerWorker {
				t.Fatalf("commits = %d, want %d", counts["commits"], workers*txPerWorker)
			}
			// Every attempt is observed exactly once: committed,
			// aborted-and-retried, or the one explicit user abort.
			if want := counts["commits"] + counts["aborts"] + 1; s.Attempt.Count != want {
				t.Errorf("attempt histogram count = %d, want %d", s.Attempt.Count, want)
			}
			if s.Aborts[metrics.AbortExplicit] != 1 {
				t.Errorf("explicit aborts = %d, want 1", s.Aborts[metrics.AbortExplicit])
			}
			if counts["kills"] > 0 && s.Aborts[metrics.AbortKilled] == 0 {
				t.Errorf("%d kills landed but the killed reason is zero", counts["kills"])
			}
			if m.batch > 0 && (counts["batches"] == 0 || s.Drain.Count == 0) {
				t.Errorf("batched mode: %d combiner rounds, %d drain samples, want both non-zero",
					counts["batches"], s.Drain.Count)
			}
			// Phase timers: with every block sampled, every mode has
			// timed the phases of its commits.
			var phases uint64
			for ph := 0; ph < metrics.NumCommitPhases; ph++ {
				phases += s.PhaseN[ph]
			}
			if phases == 0 {
				t.Error("no commit-phase samples recorded")
			}
			// State stays exact regardless of instrumentation.
			if got := rt.ReadCommitted(0); got != workers*txPerWorker {
				t.Fatalf("hot word = %d, want %d", got, workers*txPerWorker)
			}
		})
	}
}

// TestLandedKillCountsAsKilled: an attempt a kill landed on is counted
// as AbortKilled whatever reason its unwind raised first — a combiner
// failing its own admission after a requestor killed it, say — so the
// killed reason accounts for every landed kill. The retry commits.
func TestLandedKillCountsAsKilled(t *testing.T) {
	for _, kill := range []struct {
		name   string
		status uint64
	}{{"killed", statusKilled}, {"batch-killed", statusBatchKilled}} {
		for _, raised := range []metrics.AbortReason{metrics.AbortBatchAdmission, metrics.AbortValidation, metrics.AbortLockTimeout} {
			t.Run(kill.name+"/"+raised.String(), func(t *testing.T) {
				plane := metrics.NewPlane(1, 0)
				cfg := DefaultConfig()
				cfg.Metrics = plane
				rt := New(1, cfg)
				if err := rt.Atomic(rng.New(1), func(tx *Tx) error {
					if tx.Attempts() == 0 {
						st := tx.state.Load()
						tx.state.Store(st&^stateStatusMask | kill.status)
						tx.abort(raised)
					}
					tx.Store(0, 1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				s := plane.Snapshot()
				if s.Aborts[metrics.AbortKilled] != 1 || s.Aborts[raised] != 0 {
					t.Errorf("aborts %v: want one %v and no %v", s.AbortCounts(), metrics.AbortKilled, raised)
				}
				if rt.ReadCommitted(0) != 1 {
					t.Error("the retry did not commit")
				}
			})
		}
	}
}
