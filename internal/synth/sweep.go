package synth

import (
	"txconflict/internal/dist"
	"txconflict/internal/report"
	"txconflict/internal/rng"
	"txconflict/internal/strategy"
)

// Sweep runs the Figure 2 cell protocol over an arbitrary set of
// length distributions and chain length k: the scenario-diversity
// extension of Figure 2, which ExtendedSweep (paper's distsweep.txt)
// uses to evaluate the strategies on heavy-tailed (pareto, lognormal),
// rank-skewed (zipf) and trace-replay (empirical) workloads the
// paper's figure does not cover.
func Sweep(dists []dist.Sampler, b float64, k, trials int, seed uint64) *report.Table {
	r := rng.New(seed)
	strategies := strategy.Fig2Set()
	t := &report.Table{
		Title:   "Distribution sweep: average conflict cost by strategy",
		Columns: []string{"distribution", "OPT"},
	}
	for _, s := range strategies {
		t.Columns = append(t.Columns, s.Name())
	}
	for _, d := range dists {
		row := []interface{}{d.Name()}
		var optVal float64
		cells := make([]Cell, 0, len(strategies))
		for _, s := range strategies {
			c := RunCell(s, d, b, k, usesMean(s), trials, r)
			cells = append(cells, c)
			optVal = c.OptCost
		}
		row = append(row, optVal)
		for _, c := range cells {
			row = append(row, c.MeanCost)
		}
		t.AddRow(row...)
	}
	t.AddNote("B=%g, k=%d, %d trials per cell; cost model of Section 4", b, k, trials)
	return t
}

// ExtendedSweep is Sweep over the full extended distribution suite
// (Fig2Suite plus pareto, zipf and the built-in empirical trace).
func ExtendedSweep(b, mu float64, k, trials int, seed uint64) *report.Table {
	return Sweep(dist.ExtendedSuite(mu), b, k, trials, seed)
}
