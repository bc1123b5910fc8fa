package synth

import (
	"math"
	"strconv"
	"testing"

	"txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/rng"
	"txconflict/internal/strategy"
)

func TestPolicyFor(t *testing.T) {
	if policyFor(strategy.ExpRA{}) != core.RequestorAborts {
		t.Fatal("ExpRA policy")
	}
	if policyFor(strategy.MeanRA{}) != core.RequestorAborts {
		t.Fatal("MeanRA policy")
	}
	if policyFor(strategy.UniformRW{}) != core.RequestorWins {
		t.Fatal("UniformRW policy")
	}
	if policyFor(strategy.Deterministic{}) != core.RequestorWins {
		t.Fatal("DET policy")
	}
}

func TestWelfordAgainstDirect(t *testing.T) {
	r := rng.New(1)
	var m mean
	sum := 0.0
	for i := 0; i < 1000; i++ {
		x := r.NormFloat64()*3 + 10
		sum += x
		m.add(x)
	}
	if direct := sum / 1000; math.Abs(m.m-direct) > 1e-9 {
		t.Fatalf("welford mean %v vs direct %v", m.m, direct)
	}
	if m.n != 1000 {
		t.Fatalf("n = %d", m.n)
	}
}

func TestRunCellBasics(t *testing.T) {
	r := rng.New(1)
	c := RunCell(strategy.UniformRW{}, dist.Exponential{Mu: 500}, 2000, 2, false, 20000, r)
	if c.MeanCost <= 0 || c.OptCost <= 0 {
		t.Fatalf("degenerate cell %+v", c)
	}
	if c.Ratio < 1 {
		t.Fatalf("online beat OPT on average: %+v", c)
	}
	if c.Ratio > 2.2 {
		t.Fatalf("RRW ratio %v way above 2 on a benign distribution", c.Ratio)
	}
}

// TestFigure2aShape verifies the paper's three observations on
// Figure 2a (B=2000 >> µ=500):
//  1. DET performs well (almost never aborts);
//  2. the mean-constrained strategies beat their unconstrained
//     versions;
//  3. RRW costs ~2×OPT... actually on non-adversarial distributions
//     it is *at most* 2×OPT; the ≈2 equality shows on adversarial
//     inputs (Figure 2c / E12).
func TestFigure2aShape(t *testing.T) {
	r := rng.New(7)
	b, mu := 2000.0, 500.0
	for _, d := range dist.Fig2Suite(mu) {
		det := RunCell(strategy.Deterministic{}, d, b, 2, false, 30000, r)
		rrw := RunCell(strategy.UniformRW{}, d, b, 2, false, 30000, r)
		rra := RunCell(strategy.ExpRA{}, d, b, 2, false, 30000, r)
		rrwMu := RunCell(strategy.MeanRW{}, d, b, 2, true, 30000, r)
		rraMu := RunCell(strategy.MeanRA{}, d, b, 2, true, 30000, r)
		// (1) DET ~ OPT here: it waits B >> typical lengths.
		if det.Ratio > 1.1 {
			t.Errorf("%s: DET ratio %v, expected near-optimal", d.Name(), det.Ratio)
		}
		// (2) constrained beats unconstrained.
		if rrwMu.MeanCost >= rrw.MeanCost {
			t.Errorf("%s: RRW(mu) %v not below RRW %v", d.Name(), rrwMu.MeanCost, rrw.MeanCost)
		}
		if rraMu.MeanCost >= rra.MeanCost {
			t.Errorf("%s: RRA(mu) %v not below RRA %v", d.Name(), rraMu.MeanCost, rra.MeanCost)
		}
		// (3) RA beats RW at k=2 (unconstrained and constrained).
		if rra.MeanCost >= rrw.MeanCost {
			t.Errorf("%s: RRA %v not below RRW %v", d.Name(), rra.MeanCost, rrw.MeanCost)
		}
	}
}

// TestFigure2bShape verifies the low-fixed-cost regime (B=200 <
// µ=500): DET degrades, and the constrained strategies fall back to
// the unconstrained ones (threshold inequality fails), so their costs
// coincide within noise.
func TestFigure2bShape(t *testing.T) {
	r := rng.New(9)
	b, mu := 200.0, 500.0
	if mu/b < 2*(2*math.Ln2-1) {
		t.Fatal("test premise broken: should be above the RW threshold")
	}
	var detWorse int
	for _, d := range dist.Fig2Suite(mu) {
		det := RunCell(strategy.Deterministic{}, d, b, 2, false, 30000, r)
		rrw := RunCell(strategy.UniformRW{}, d, b, 2, false, 30000, r)
		rrwMu := RunCell(strategy.MeanRW{}, d, b, 2, true, 30000, r)
		if det.Ratio > rrw.Ratio {
			detWorse++
		}
		// Fallback: constrained == unconstrained distributionally.
		if rel := math.Abs(rrwMu.MeanCost-rrw.MeanCost) / rrw.MeanCost; rel > 0.05 {
			t.Errorf("%s: RRW(mu) should fall back to RRW: %v vs %v", d.Name(), rrwMu.MeanCost, rrw.MeanCost)
		}
	}
	if detWorse < 3 {
		t.Errorf("DET degraded on only %d/5 distributions in the low-B regime", detWorse)
	}
}

func TestFigure2Table(t *testing.T) {
	tab := Figure2(2000, 500, 5000, 1)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Columns) != 7 { // distribution, OPT, 5 strategies
		t.Fatalf("cols = %v", tab.Columns)
	}
	// Every cost cell must be positive and parseable.
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v <= 0 {
				t.Fatalf("bad cell %q in %v", cell, row)
			}
		}
	}
}

// TestFigure2cDETCollapse: on DET's worst-case input, DET pays ~3x
// OPT while RRW stays at ~2x and RRA at ~e/(e-1).
func TestFigure2cDETCollapse(t *testing.T) {
	tab := Figure2c(1000, 200000, 3)
	ratios := map[string]float64{}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", row[3])
		}
		ratios[row[0]] = v
	}
	if r := ratios["DET"]; math.Abs(r-3) > 0.01 {
		t.Errorf("DET worst-case ratio %v, want ~3", r)
	}
	if r := ratios["RRW"]; math.Abs(r-2) > 0.05 {
		t.Errorf("RRW ratio %v, want ~2", r)
	}
	want := math.E / (math.E - 1)
	if r := ratios["RRA"]; math.Abs(r-want) > 0.05 {
		t.Errorf("RRA ratio %v, want ~%v", r, want)
	}
	if ratios["DET"] <= ratios["RRW"] {
		t.Error("DET should lose to RRW on its worst case")
	}
}

// TestAbortProbability verifies Section 5.3's densities: commit mass
// ~1.8/B for RW, ~2.4/B for RA, so RA aborts less often.
func TestAbortProbability(t *testing.T) {
	b := 1000.0
	tab := AbortProbability(b, 400000, 5)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var rwAbort, raAbort float64
	for _, row := range tab.Rows {
		measured, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[1])
		}
		analytic, _ := strconv.ParseFloat(row[2], 64)
		if math.Abs(measured-analytic) > 0.002 {
			t.Errorf("%s: measured %v vs analytic %v", row[0], measured, analytic)
		}
		switch row[0] {
		case "RRW(mu)":
			rwAbort = measured
		case "RRA(mu)":
			raAbort = measured
		}
	}
	if !(raAbort < rwAbort) {
		t.Errorf("RA abort prob %v should be below RW %v", raAbort, rwAbort)
	}
}

func TestCrossover(t *testing.T) {
	tab := Crossover(8)
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][3] != "RA" {
		t.Errorf("k=2 winner = %s, want RA", tab.Rows[0][3])
	}
	for _, row := range tab.Rows[1:] {
		if row[3] != "RW" {
			t.Errorf("k=%s winner = %s, want RW", row[0], row[3])
		}
	}
}

func TestRatioValidation(t *testing.T) {
	tab := RatioValidation(1000, 40000, 11)
	for _, row := range tab.Rows {
		emp, _ := strconv.ParseFloat(row[3], 64)
		ana, _ := strconv.ParseFloat(row[4], 64)
		if emp > ana*1.05 {
			t.Errorf("%s k=%s: empirical ratio %v above analytic %v", row[0], row[2], emp, ana)
		}
		if emp < ana*0.5 {
			t.Errorf("%s k=%s: empirical ratio %v suspiciously low vs %v (bad sweep?)", row[0], row[2], emp, ana)
		}
	}
}

func BenchmarkFigure2Cell(b *testing.B) {
	r := rng.New(1)
	d := dist.Exponential{Mu: 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunCell(strategy.UniformRW{}, d, 2000, 2, false, 100, r)
	}
}
