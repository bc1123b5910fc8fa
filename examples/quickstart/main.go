// Quickstart: resolve a single transactional conflict with each of
// the paper's strategies and compare expected costs against the
// clairvoyant optimum.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"txconflict/internal/core"
	"txconflict/internal/report"
	"txconflict/internal/rng"
	"txconflict/internal/strategy"
)

func main() {
	r := rng.New(42)

	// A receiver transaction is interrupted. Aborting it costs
	// B = 1000 (elapsed work + cleanup); the profiler says
	// transactions run for µ = 200 on average; the conflict involves
	// k = 2 transactions. The remaining time D is the online unknown
	// — we tabulate a few adversarial choices.
	conflict := core.Conflict{Policy: core.RequestorWins, K: 2, B: 1000, Mean: 200}

	strategies := []core.Strategy{
		strategy.Immediate{},     // abort at once (NO_DELAY)
		strategy.Deterministic{}, // wait exactly B (Theorem 4)
		strategy.UniformRW{},     // uniform grace (Theorem 5, ratio 2)
		strategy.MeanRW{},        // mean-constrained (Theorem 5 with µ)
	}

	t := &report.Table{
		Title:   "Expected conflict cost by remaining time D (requestor wins, B=1000, µ=200)",
		Columns: []string{"D", "OPT"},
	}
	for _, s := range strategies {
		t.Columns = append(t.Columns, strategy.Describe(s, conflict))
	}
	for _, d := range []float64{50, 200, 500, 1000, 3000} {
		row := []interface{}{d, core.OptCost(conflict, d)}
		for _, s := range strategies {
			row = append(row, core.ExpectedCost(conflict, s, d, r, 200000))
		}
		t.AddRow(row...)
	}
	t.AddNote("the uniform strategy pays exactly 2x OPT for every D — the equalizer property")

	if err := t.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// The requestor-aborts side reduces to ski rental: the optimal
	// strategy is exponential, with ratio e/(e-1) ~ 1.58.
	ra := core.Conflict{Policy: core.RequestorAborts, K: 2, B: 1000}
	fmt.Printf("requestor-aborts optimum: %s\n", strategy.Describe(strategy.ExpRA{}, ra))
	fmt.Printf("hybrid policy picks: k=2 -> %v, k=4 -> %v\n",
		core.HybridPolicy(2), core.HybridPolicy(4))
}
