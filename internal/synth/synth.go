// Package synth reimplements the paper's Section 8.1 synthetic
// testbed: the transaction length is drawn from a distribution, the
// interrupt point is uniform over the length, the strategy picks the
// grace period, and the conflict cost follows Section 4's model.
// It regenerates Figure 2 (a, b, c) plus the abort-probability
// comparison of Section 5.3 and the RW-vs-RA crossover of
// Sections 5.3/5.4.
package synth

import (
	"math"

	"txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/report"
	"txconflict/internal/rng"
	"txconflict/internal/strategy"
)

// mean is a running mean with Welford's update, m += (x-m)/n. The zero
// value is ready to use.
type mean struct {
	n int64
	m float64
}

func (a *mean) add(x float64) {
	a.n++
	a.m += (x - a.m) / float64(a.n)
}

// policyFor returns the cost-model policy a Figure 2 strategy is
// evaluated under (RRA variants use requestor aborts, the rest
// requestor wins).
func policyFor(s core.Strategy) core.Policy {
	switch s.(type) {
	case strategy.ExpRA, strategy.MeanRA:
		return core.RequestorAborts
	default:
		return core.RequestorWins
	}
}

// Cell is the outcome of one (strategy, distribution) cell.
type Cell struct {
	Strategy string
	Dist     string
	MeanCost float64
	OptCost  float64
	// Ratio is MeanCost / OptCost.
	Ratio float64
}

// RunCell evaluates one strategy against one length distribution
// with the Section 8.1 protocol.
func RunCell(s core.Strategy, d dist.Sampler, b float64, k int, feedMean bool, trials int, r *rng.Rand) Cell {
	pol := policyFor(s)
	var cost, opt mean
	for i := 0; i < trials; i++ {
		length := d.Sample(r)
		if length <= 0 {
			length = 1
		}
		interrupt := r.Float64() * length
		remaining := length - interrupt
		conf := core.Conflict{Policy: pol, K: k, B: b}
		if feedMean {
			conf.Mean = d.Mean()
		}
		x := s.Delay(conf, r)
		cost.add(core.Cost(conf, x, remaining))
		opt.add(math.Min(remaining*float64(k-1), b))
	}
	c := Cell{
		Strategy: s.Name(),
		Dist:     d.Name(),
		MeanCost: cost.m,
		OptCost:  opt.m,
	}
	if c.OptCost != 0 {
		c.Ratio = c.MeanCost / c.OptCost
	}
	return c
}

// Figure2 regenerates Figure 2a (b=2000, µ=500) or 2b (b=200,
// µ=500): average conflict cost of each strategy across the five
// length distributions, normalized columns plus the offline optimum.
func Figure2(b, mu float64, trials int, seed uint64) *report.Table {
	t := Sweep(dist.Fig2Suite(mu), b, 2, trials, seed)
	t.Title = figTitle(b, mu)
	t.Notes = nil
	t.AddNote("B=%g, µ=%g, %d trials per cell; cost model of Section 4 with k=2", b, mu, trials)
	return t
}

func usesMean(s core.Strategy) bool {
	switch s.(type) {
	case strategy.MeanRW, strategy.MeanRA:
		return true
	default:
		return false
	}
}

func figTitle(b, mu float64) string {
	if b > mu {
		return "Figure 2a: average conflict cost, high fixed cost"
	}
	return "Figure 2b: average conflict cost, low fixed cost"
}

// Figure2c regenerates Figure 2c: the adversary plays the worst-case
// remaining time for the deterministic strategy (remaining just above
// DET's abort point), where DET pays ~3B while the randomized
// strategies stay near their ratios.
func Figure2c(b float64, trials int, seed uint64) *report.Table {
	r := rng.New(seed)
	strategies := strategy.Fig2Set()
	t := &report.Table{
		Title:   "Figure 2c: worst-case distribution for DET",
		Columns: []string{"strategy", "mean cost", "OPT", "ratio"},
	}
	remaining := b + 1e-9 // just above DET's k=2 abort point x=B
	for _, s := range strategies {
		pol := policyFor(s)
		var cost mean
		for i := 0; i < trials; i++ {
			conf := core.Conflict{Policy: pol, K: 2, B: b}
			if usesMean(s) {
				conf.Mean = remaining / 2 // uniform interrupt over 2B
			}
			x := s.Delay(conf, r)
			cost.add(core.Cost(conf, x, remaining))
		}
		opt := math.Min(remaining, b)
		t.AddRow(s.Name(), cost.m, opt, cost.m/opt)
	}
	t.AddNote("adversary sets remaining time D = B+ε; DET waits B and still aborts, paying 3B")
	return t
}

// AbortProbability reproduces the Section 5.3 comparison: with the
// adversary at y = B, the probability that the mean-constrained
// strategies commit the receiver is the upper tail of their delay
// densities near B — about 1.8/B per unit step for requestor wins
// and 2.4/B for requestor aborts, so requestor aborts is less likely
// to abort under the same conditions.
func AbortProbability(b float64, trials int, seed uint64) *report.Table {
	r := rng.New(seed)
	t := &report.Table{
		Title:   "Section 5.3: abort probability at y = B (mean-constrained strategies)",
		Columns: []string{"strategy", "P[abort] measured", "P[abort] analytic", "tail density at B (×B)"},
	}
	// Adversary one unit short of the cap: commit iff x >= B-1,
	// whose probability approximates the density at B.
	d := b - 1
	mu := 1.0 // deep in the constrained regime
	cases := []struct {
		s       core.Strategy
		pol     core.Policy
		density float64
	}{
		{strategy.MeanRW{}, core.RequestorWins, math.Ln2 / (b * (2*math.Ln2 - 1))},
		{strategy.MeanRA{}, core.RequestorAborts, (math.E - 1) / (b * (math.E - 2))},
	}
	for _, c := range cases {
		aborts := 0
		for i := 0; i < trials; i++ {
			conf := core.Conflict{Policy: c.pol, K: 2, B: b, Mean: mu}
			if c.s.Delay(conf, r) < d {
				aborts++
			}
		}
		measured := float64(aborts) / float64(trials)
		analytic := 1 - c.density // per unit step at the edge
		t.AddRow(c.s.Name(), measured, analytic, c.density*b)
	}
	t.AddNote("requestor aborts keeps the receiver alive more often: 2.4/B vs 1.8/B commit mass")
	return t
}

// Crossover tabulates the analytic competitive ratios of the optimal
// RW and RA strategies as the conflict chain k grows (Sections
// 5.3-5.4): RA wins at k=2, RW wins for k >= 3.
func Crossover(maxK int) *report.Table {
	t := &report.Table{
		Title:   "RW vs RA competitive ratio by chain length k",
		Columns: []string{"k", "RRW* ratio", "RRA ratio", "better"},
	}
	for k := 2; k <= maxK; k++ {
		rw := strategy.GeneralRW{}.Ratio(core.Conflict{Policy: core.RequestorWins, K: k, B: 1})
		ra := strategy.ExpRA{}.Ratio(core.Conflict{Policy: core.RequestorAborts, K: k, B: 1})
		better := "RW"
		if ra < rw {
			better = "RA"
		}
		t.AddRow(k, rw, ra, better)
	}
	t.AddNote("hybrid policy (Section 9): requestor aborts at k=2, requestor wins for chains")
	return t
}

// RatioValidation sweeps adversarial remaining times and reports the
// worst empirical competitive ratio of each strategy against its
// analytic value (experiment E12).
func RatioValidation(b float64, samples int, seed uint64) *report.Table {
	r := rng.New(seed)
	t := &report.Table{
		Title:   "Empirical worst-case competitive ratio vs analytic",
		Columns: []string{"strategy", "policy", "k", "empirical", "analytic"},
	}
	type tc struct {
		s   core.Strategy
		pol core.Policy
		k   int
	}
	cases := []tc{
		{strategy.UniformRW{}, core.RequestorWins, 2},
		{strategy.GeneralRW{}, core.RequestorWins, 4},
		{strategy.ExpRA{}, core.RequestorAborts, 2},
		{strategy.ExpRA{}, core.RequestorAborts, 4},
		{strategy.Deterministic{}, core.RequestorWins, 2},
		{strategy.Deterministic{}, core.RequestorWins, 3},
	}
	for _, c := range cases {
		conf := core.Conflict{Policy: c.pol, K: c.k, B: b}
		// Sweep from b/20: the max over many noisy per-point ratio
		// estimates biases upward at tiny d, where the cost variance
		// explodes (rare aborts cost ~B against an OPT of ~d).
		worst := core.WorstCaseRatio(conf, c.s, b/20, 2*b, 80, samples, r)
		analytic := c.s.(strategy.Analytic).Ratio(conf)
		t.AddRow(c.s.Name(), c.pol.String(), c.k, worst, analytic)
	}
	return t
}
