package htm_test

import (
	"runtime"
	"testing"

	"txconflict/internal/htm"
	"txconflict/internal/rng"
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

// predrawn replays transactions drawn ahead of time, so NextTx — the
// workload's cost, not the simulator's — allocates nothing while the
// machine runs.
type predrawn struct {
	txs  [][]htm.Tx
	next []int
}

func predraw(t *testing.T, cores, perCore int) *predrawn {
	w, err := workload.ByName("hotspot", scenario.Options{Workers: cores})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	p := &predrawn{txs: make([][]htm.Tx, cores), next: make([]int, cores)}
	for c := range p.txs {
		for i := 0; i < perCore; i++ {
			tx := w.NextTx(c, r)
			tx.Ops = append([]htm.Op(nil), tx.Ops...)
			p.txs[c] = append(p.txs[c], tx)
		}
	}
	return p
}

func (p *predrawn) Name() string { return "predrawn-hotspot" }

func (p *predrawn) NextTx(core int, _ *rng.Rand) htm.Tx {
	tx := p.txs[core][p.next[core]%len(p.txs[core])]
	p.next[core]++
	return tx
}

// TestSteadyStateAllocs is the simulator's allocation gate: once a
// 16-core hotspot machine is warm (directory entries exist, the
// message pool, the event heap and every parked-request list have
// reached their working size), extending the run allocates at most
// 0.05 objects per fired event — Collect's metrics snapshot and an
// occasional slice growing, nothing per event or per commit.
func TestSteadyStateAllocs(t *testing.T) {
	p := htm.DefaultParams(16)
	p.Strategy = strategy.UniformRW{}
	m := htm.NewMachine(p, predraw(t, 16, 512))
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
	if got := allocs / perRun; got > 0.05 {
		t.Fatalf("%.4f allocs per fired event (%.1f allocs, %.0f events a window), want <= 0.05", got, allocs, perRun)
	} else {
		t.Logf("%.5f allocs per fired event (%.1f allocs, %.0f events a window)", got, allocs, perRun)
	}
}
