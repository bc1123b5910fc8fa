package htm_test

import (
	"runtime"
	"testing"

	"txconflict/internal/htm"
	"txconflict/internal/scenario"
	"txconflict/internal/strategy"
	"txconflict/internal/workload"
)

// BenchmarkFig3Cell times one Figure 3 cell the way the repository
// benchmark's sim-hot-16 runs it — build a 16-core machine on the
// hotspot scenario, Run 1M cycles, Drain, Check — and reports the
// simulator's unit costs: host ns and heap allocations per fired
// event, and the commits one cell simulates.
func BenchmarkFig3Cell(b *testing.B) {
	b.ReportAllocs()
	var events, commits uint64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := workload.ByName("hotspot", scenario.Options{})
		if err != nil {
			b.Fatal(err)
		}
		p := htm.DefaultParams(16)
		p.Strategy = strategy.UniformRW{}
		m := htm.NewMachine(p, w)
		m.Run(1000000)
		fin := m.Drain()
		if err := w.Check(m.Dir.ReadWord, fin.PerCoreCommits); err != nil {
			b.Fatal(err)
		}
		events += m.K.Fired()
		commits += fin.Commits
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(events), "allocs/event")
	b.ReportMetric(float64(commits)/float64(b.N), "commits/op")
}

// TestSteadyStateAllocs is the simulator's allocation gate: once a
// 16-core hotspot machine is warm (directory entries exist, the
// message pool, the event slab, the per-core op buffers and every
// parked-request list have reached their working size), extending the
// run allocates at most 0.01 objects per fired event — Collect's
// metrics snapshot and an occasional slice growing, nothing per event,
// per transaction drawn or per commit.
func TestSteadyStateAllocs(t *testing.T) {
	w, err := workload.ByName("hotspot", scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := htm.DefaultParams(16)
	p.Strategy = strategy.UniformRW{}
	m := htm.NewMachine(p, w)
	limit := uint64(300000)
	m.Run(limit)
	const window = 50000
	fired := m.K.Fired()
	runs := 0
	allocs := testing.AllocsPerRun(10, func() {
		limit += window
		m.Run(limit)
		runs++
	})
	perRun := float64(m.K.Fired()-fired) / float64(runs)
	if perRun < 1000 {
		t.Fatalf("only %.0f events per window: the machine is not running", perRun)
	}
	if got := allocs / perRun; got > 0.01 {
		t.Fatalf("%.4f allocs per fired event (%.1f allocs, %.0f events a window), want <= 0.01", got, allocs, perRun)
	} else {
		t.Logf("%.5f allocs per fired event (%.1f allocs, %.0f events a window)", got, allocs, perRun)
	}
}
