package metrics_test

import (
	"testing"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

// TestSampleInterval pins the 1-in-N contract where the sampler lives:
// each atomic block draws once, from its descriptor's own stream,
// whether it is a sample. Only sampled blocks are timed — one attempt
// and one commit observation each here, where nothing retries — and a
// block the same draw picks, independently, for the phase timers runs
// them once if it writes, a read-only one not at all; the commits count
// stays exact whatever was sampled. The draw is random, not every N-th
// block: on two descriptors interleaved on one shard, 4,000 blocks each
// at 1-in-8, the samples (and the phase-timed write blocks) lie within
// five standard deviations (~30) of 1,000.
func TestSampleInterval(t *testing.T) {
	for _, body := range []struct {
		name  string
		write bool
		fn    func(tx *stm.Tx) error
	}{
		{"write", true, func(tx *stm.Tx) error { tx.Store(0, tx.Load(0)+1); return nil }},
		{"read", false, func(tx *stm.Tx) error { _ = tx.Load(1); return nil }},
	} {
		t.Run(body.name, func(t *testing.T) {
			plane := metrics.NewPlane(1, 6) // rounds up to 1-in-8
			if plane.SampleN() != 8 {
				t.Fatalf("SampleN = %d, want 8", plane.SampleN())
			}
			cfg := stm.DefaultConfig()
			cfg.Metrics = plane
			rt := stm.New(4, cfg)
			const perHandle = 4000
			a, b := rt.Worker(0, rng.New(1)), rt.Worker(0, rng.New(2))
			for i := 0; i < perHandle; i++ {
				_ = a.Atomic(body.fn)
				_ = b.Atomic(body.fn)
			}
			a.Release()
			b.Release()
			snap := plane.Snapshot()
			if got := snap.Counts()["commits"]; got != 2*perHandle {
				t.Fatalf("commits = %d, want %d", got, 2*perHandle)
			}
			sampled := snap.Commit.Count
			if sampled < 850 || sampled > 1150 || snap.Attempt.Count != sampled {
				t.Fatalf("%d sampled commits and %d sampled attempts over %d blocks at 1-in-8, want one each per sample and 850–1150 samples",
					sampled, snap.Attempt.Count, 2*perHandle)
			}
			// The phase timers run on their own 1-in-8 draw, in write
			// commits only.
			phased := snap.PhaseN[metrics.PhaseValidate]
			if snap.PhaseN[metrics.PhaseClock] != phased ||
				body.write && (phased < 850 || phased > 1150) || !body.write && phased != 0 {
				t.Fatalf("%d validate and %d clock phase samples over %d blocks at 1-in-8, want equal counts, 850–1150 for write blocks and 0 for read-only ones",
					phased, snap.PhaseN[metrics.PhaseClock], 2*perHandle)
			}
		})
	}
}
