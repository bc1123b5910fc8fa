// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 8). Each benchmark prints the corresponding
// table once (on the first iteration) and then times the underlying
// harness, so `go test -bench=. -benchmem` doubles as the full
// reproduction run. See EXPERIMENTS.md for the paper-vs-measured
// comparison.
package txconflict_test

import (
	"os"
	"sync"
	"testing"
	"time"

	"txconflict/internal/experiments"
	"txconflict/internal/htm"
	"txconflict/internal/report"
	"txconflict/internal/rng"
	"txconflict/internal/scenario"
	"txconflict/internal/stm"
	"txconflict/internal/strategy"
	"txconflict/internal/synth"
	"txconflict/internal/workload"
)

// printOnce writes a table to stdout on the benchmark's first
// iteration only.
var printedTables sync.Map

func printOnce(b *testing.B, key string, t *report.Table) {
	b.Helper()
	if _, loaded := printedTables.LoadOrStore(key, true); !loaded {
		b.StopTimer()
		_ = t.WriteText(os.Stdout)
		b.StartTimer()
	}
}

// BenchmarkFigure2a — E1: synthetic conflict costs, high fixed cost
// (B=2000, µ=500) across the five length distributions.
func BenchmarkFigure2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := synth.Figure2(2000, 500, 20000, 1)
		printOnce(b, "fig2a", t)
	}
}

// BenchmarkFigure2b — E2: synthetic conflict costs, low fixed cost
// (B=200, µ=500).
func BenchmarkFigure2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := synth.Figure2(200, 500, 20000, 1)
		printOnce(b, "fig2b", t)
	}
}

// BenchmarkFigure2c — E3: the worst-case distribution for the
// deterministic strategy.
func BenchmarkFigure2c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := synth.Figure2c(1000, 50000, 1)
		printOnce(b, "fig2c", t)
	}
}

func benchFigure3(b *testing.B, bench string) {
	cfg := experiments.Fig3Config{
		Threads: []int{1, 2, 4, 8, 16},
		Cycles:  500_000,
		Seed:    1,
	}
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure3(bench, cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "fig3-"+bench, t)
	}
}

// BenchmarkFigure3Stack — E4: HTM-simulator stack throughput across
// threads and delay strategies.
func BenchmarkFigure3Stack(b *testing.B) { benchFigure3(b, "stack") }

// BenchmarkFigure3Queue — E5: HTM-simulator queue throughput.
func BenchmarkFigure3Queue(b *testing.B) { benchFigure3(b, "queue") }

// BenchmarkFigure3TxApp — E6: HTM-simulator transactional-application
// throughput (2 of 64 objects).
func BenchmarkFigure3TxApp(b *testing.B) { benchFigure3(b, "txapp") }

// BenchmarkFigure3Bimodal — E7: HTM-simulator bimodal application
// (short / very long transactions).
func BenchmarkFigure3Bimodal(b *testing.B) { benchFigure3(b, "bimodal") }

// BenchmarkCorollary1 — E8: adversarial sum-of-running-times ratio vs
// the (r·w+1)/(w+1) bound.
func BenchmarkCorollary1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Corollary1(10000, 1)
		printOnce(b, "cor1", t)
	}
}

// BenchmarkCorollary2 — E9: progress under multiplicative backoff.
func BenchmarkCorollary2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Corollary2(2000, 1)
		printOnce(b, "cor2", t)
	}
}

// BenchmarkAbortProbability — E10: Section 5.3's abort probabilities
// at y = B.
func BenchmarkAbortProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := synth.AbortProbability(1000, 100000, 1)
		printOnce(b, "abortprob", t)
	}
}

// BenchmarkRWvsRA — E11: the competitive-ratio crossover in the
// chain length k.
func BenchmarkRWvsRA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := synth.Crossover(10)
		printOnce(b, "crossover", t)
	}
}

// BenchmarkCompetitiveRatios — E12: empirical worst-case ratio of
// each strategy vs its analytic value.
func BenchmarkCompetitiveRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := synth.RatioValidation(1000, 10000, 1)
		printOnce(b, "ratios", t)
	}
}

// BenchmarkScenarioHTM — E15: every registry scenario on the HTM
// simulator at 8 cores (one sub-benchmark per scenario name, the
// same registry the -scenario CLI flags select from).
func BenchmarkScenarioHTM(b *testing.B) {
	for _, name := range scenario.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			w, err := workload.ByName(name, scenario.Options{})
			if err != nil {
				b.Fatal(err)
			}
			p := htm.DefaultParams(8)
			p.Strategy = strategy.UniformRW{}
			m := htm.NewMachine(p, w)
			b.ResetTimer()
			m.Run(uint64(b.N) * 200)
		})
	}
}

// BenchmarkScenarioSTM — E16: every registry scenario as real
// transactions on the STM runtime (single worker: per-op latency).
func BenchmarkScenarioSTM(b *testing.B) {
	for _, name := range scenario.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			sc, err := scenario.ByName(name, scenario.Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			rn := scenario.NewSTMRunner(sc, stm.DefaultConfig())
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rn.RunOne(0, r)
			}
		})
	}
}

// BenchmarkSTMThroughput — E13: the real-goroutine STM counterpart
// of Figure 3 (transactional application).
func BenchmarkSTMThroughput(b *testing.B) {
	cfg := experiments.DefaultSTMConfig()
	cfg.Goroutines = []int{1, 2, 4}
	cfg.Duration = 50 * time.Millisecond
	for i := 0; i < b.N; i++ {
		t, err := experiments.STMThroughput("txapp", cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, "stm", t)
	}
}
