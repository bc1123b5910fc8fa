package metrics_test

import (
	"testing"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

// TestSampleInterval pins the 1-in-N contract where the sampler lives
// since the shards lost their tick: each descriptor counts its own
// write commits against the plane's interval, so a descriptor that
// commits c of them has run the phase timers on exactly c/N — however
// its commits interleave with another descriptor's on the same shard —
// and read-only commits, which have no phases, do not count.
func TestSampleInterval(t *testing.T) {
	plane := metrics.NewPlane(1, 6) // rounds up to 1-in-8
	if plane.SampleN() != 8 {
		t.Fatalf("SampleN = %d, want 8", plane.SampleN())
	}
	cfg := stm.DefaultConfig()
	cfg.Metrics = plane
	rt := stm.New(4, cfg)
	write := func(tx *stm.Tx) error { tx.Store(0, tx.Load(0)+1); return nil }
	read := func(tx *stm.Tx) error { _ = tx.Load(1); return nil }
	a, b := rt.Worker(0, rng.New(1)), rt.Worker(0, rng.New(2))
	for i := 0; i < 8*10; i++ { // a: 80 write commits, b: 36, interleaved
		_ = a.Atomic(write)
		_ = a.Atomic(read)
		if i < 36 {
			_ = b.Atomic(write)
		}
	}
	a.Release()
	b.Release()
	snap := plane.Snapshot()
	if want := uint64(80/8 + 36/8); snap.PhaseN[metrics.PhaseValidate] != want || snap.PhaseN[metrics.PhaseClock] != want {
		t.Fatalf("sampled %d validate and %d clock phases over 80 + 36 write commits on two descriptors at 1-in-8, want %d each",
			snap.PhaseN[metrics.PhaseValidate], snap.PhaseN[metrics.PhaseClock], want)
	}
	if snap.Commit.Count != 80+80+36 {
		t.Fatalf("commits = %d, want %d", snap.Commit.Count, 80+80+36)
	}
}
