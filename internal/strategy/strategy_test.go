package strategy

import (
	"math"
	"testing"

	"txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/rng"
)

// conflicts under test: a spread of policies, chain lengths, budgets
// and means covering both constrained and unconstrained regimes.
func testConflicts() []core.Conflict {
	return []core.Conflict{
		{Policy: core.RequestorWins, K: 2, B: 2000, Mean: 500},
		{Policy: core.RequestorWins, K: 2, B: 200, Mean: 500},
		{Policy: core.RequestorWins, K: 3, B: 1000, Mean: 30},
		{Policy: core.RequestorWins, K: 5, B: 1000, Mean: 10},
		{Policy: core.RequestorWins, K: 8, B: 800},
		{Policy: core.RequestorAborts, K: 2, B: 2000, Mean: 500},
		{Policy: core.RequestorAborts, K: 2, B: 200, Mean: 500},
		{Policy: core.RequestorAborts, K: 3, B: 1000, Mean: 100},
		{Policy: core.RequestorAborts, K: 6, B: 900},
	}
}

// distributions returns every Distribution strategy applicable to the
// conflict's policy.
func distributionsFor(c core.Conflict) []Distribution {
	if c.Policy == core.RequestorAborts {
		return []Distribution{ExpRA{}, MeanRA{}}
	}
	return []Distribution{UniformRW{}, GeneralRW{}, MeanRW{}}
}

func TestPDFsIntegrateToOne(t *testing.T) {
	for _, c := range testConflicts() {
		for _, s := range distributionsFor(c) {
			lo, hi := s.Support(c)
			integral := dist.IntegratePDF(func(x float64) float64 { return s.PDF(c, x) }, lo, hi, 4000)
			if math.Abs(integral-1) > 1e-6 {
				t.Errorf("%s %+v: PDF integrates to %v", s.Name(), c, integral)
			}
		}
	}
}

func TestPDFsNonNegative(t *testing.T) {
	for _, c := range testConflicts() {
		for _, s := range distributionsFor(c) {
			lo, hi := s.Support(c)
			for i := 0; i <= 1000; i++ {
				x := lo + (hi-lo)*float64(i)/1000
				if p := s.PDF(c, x); p < 0 {
					t.Fatalf("%s %+v: PDF(%v) = %v < 0", s.Name(), c, x, p)
				}
			}
			if s.PDF(c, hi+1) != 0 || s.PDF(c, -1) != 0 {
				t.Errorf("%s %+v: PDF nonzero outside support", s.Name(), c)
			}
		}
	}
}

func TestCDFMatchesIntegratedPDF(t *testing.T) {
	for _, c := range testConflicts() {
		for _, s := range distributionsFor(c) {
			lo, hi := s.Support(c)
			numCDF := dist.CDFFromPDF(func(x float64) float64 { return s.PDF(c, x) }, lo, hi, 8000)
			for i := 0; i <= 20; i++ {
				x := lo + (hi-lo)*float64(i)/20
				want := numCDF(x)
				got := s.CDF(c, x)
				if math.Abs(got-want) > 2e-4 {
					t.Errorf("%s %+v: CDF(%v) = %v, integral says %v", s.Name(), c, x, got, want)
				}
			}
			if v := s.CDF(c, hi); math.Abs(v-1) > 1e-9 {
				t.Errorf("%s %+v: CDF(hi) = %v", s.Name(), c, v)
			}
			if v := s.CDF(c, lo); math.Abs(v) > 1e-9 {
				t.Errorf("%s %+v: CDF(lo) = %v", s.Name(), c, v)
			}
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	for _, c := range testConflicts() {
		for _, s := range distributionsFor(c) {
			lo, hi := s.Support(c)
			prev := -1.0
			for i := 0; i <= 500; i++ {
				x := lo + (hi-lo)*float64(i)/500
				v := s.CDF(c, x)
				if v < prev-1e-12 {
					t.Fatalf("%s %+v: CDF not monotone at %v", s.Name(), c, x)
				}
				prev = v
			}
		}
	}
}

func TestSamplesMatchCDF(t *testing.T) {
	// Kolmogorov-Smirnov-style check at fixed probe points.
	r := rng.New(202)
	const n = 100000
	for _, c := range testConflicts() {
		for _, s := range distributionsFor(c) {
			lo, hi := s.Support(c)
			probes := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
			counts := make([]int, len(probes))
			for i := 0; i < n; i++ {
				x := s.Delay(c, r)
				if x < lo-1e-9 || x > hi+1e-9 {
					t.Fatalf("%s %+v: sample %v outside support [%v,%v]", s.Name(), c, x, lo, hi)
				}
				for j, p := range probes {
					if x <= lo+(hi-lo)*p {
						counts[j]++
					}
				}
			}
			for j, p := range probes {
				want := s.CDF(c, lo+(hi-lo)*p)
				got := float64(counts[j]) / n
				if math.Abs(got-want) > 0.01 {
					t.Errorf("%s %+v: empirical CDF at probe %v = %v, analytic %v", s.Name(), c, p, got, want)
				}
			}
		}
	}
}

// TestEqualizerProperty verifies the defining property of the paper's
// optimal randomized strategies: the pointwise competitive ratio
// E[Cost]/OPT equals λ1 + λ2·d on the whole support (λ2 = 0 for the
// unconstrained strategies, so the ratio is flat and equal to the
// analytic competitive ratio). E[Cost] is integrated exactly over the
// strategy's density (Simpson's rule, split at x = d, where the cost
// jumps), so the check holds to 1e-9; that the sampler draws from
// this density is TestSamplesMatchCDF's and
// TestCDFMatchesIntegratedPDF's business.
func TestEqualizerProperty(t *testing.T) {
	const n = 2000 // Simpson intervals per piece
	type tc struct {
		c       core.Conflict
		s       Distribution
		lambda2 func(c core.Conflict) float64
	}
	zero := func(core.Conflict) float64 { return 0 }
	cases := []tc{
		{core.Conflict{Policy: core.RequestorWins, K: 2, B: 100}, UniformRW{}, zero},
		{core.Conflict{Policy: core.RequestorWins, K: 4, B: 100}, GeneralRW{}, zero},
		{core.Conflict{Policy: core.RequestorAborts, K: 2, B: 100}, ExpRA{}, zero},
		{core.Conflict{Policy: core.RequestorAborts, K: 3, B: 100}, ExpRA{}, zero},
		{core.Conflict{Policy: core.RequestorWins, K: 2, B: 100, Mean: 10}, MeanRW{},
			func(c core.Conflict) float64 { return 1 / (2 * c.B * ln4m1) }},
		{core.Conflict{Policy: core.RequestorWins, K: 3, B: 100, Mean: 5}, MeanRW{},
			func(c core.Conflict) float64 {
				_, k1k, _, tt := kPowers(3)
				return float64(3-2) * k1k / (2 * c.B * tt)
			}},
		{core.Conflict{Policy: core.RequestorAborts, K: 2, B: 100, Mean: 10}, MeanRA{},
			func(c core.Conflict) float64 { return 1 / (2 * c.B * (math.E - 2)) }},
		{core.Conflict{Policy: core.RequestorAborts, K: 3, B: 100, Mean: 10}, MeanRA{},
			func(c core.Conflict) float64 { return float64(3-1) / (2 * c.B * raW(3)) }},
	}
	for _, tcase := range cases {
		c := tcase.c
		hi := core.MaxUsefulDelay(c)
		var lambda1 float64
		if tcase.lambda2(c) == 0 {
			lambda1 = tcase.s.(Analytic).Ratio(core.Conflict{Policy: c.Policy, K: c.K, B: c.B})
		} else {
			lambda1 = 1 // constrained corners all have λ1 = 1
		}
		// The integral below sees only the density, so an atom at
		// either end of the support would go unpriced: there is none.
		lo, sup := tcase.s.Support(c)
		if a, b := tcase.s.CDF(c, lo), 1-tcase.s.CDF(c, sup); a != 0 || b > 1e-15 {
			t.Fatalf("%s %+v: mass %v at lo, %v at hi, want none", tcase.s.Name(), c, a, b)
		}
		pdf := func(x float64) float64 { return tcase.s.PDF(c, x) }
		for _, frac := range []float64{0.15, 0.4, 0.7, 0.95} {
			d := hi * frac
			// x < d: the receiver did not make it, whatever d is
			// (the cost's left limit at x = d); x >= d: it committed.
			left := dist.IntegratePDF(func(x float64) float64 {
				return pdf(x) * core.Cost(c, x, math.Inf(1))
			}, lo, math.Min(d, sup), n)
			right := dist.IntegratePDF(func(x float64) float64 {
				return pdf(x) * core.Cost(c, x, d)
			}, math.Min(d, sup), sup, n)
			got := (left + right) / core.OptCost(c, d)
			want := lambda1 + tcase.lambda2(c)*d
			if math.Abs(got-want)/want > 1e-9 {
				t.Errorf("%s %+v d=%v: ratio %v, want λ1+λ2·d = %v", tcase.s.Name(), c, d, got, want)
			}
		}
	}
}

func TestDeterministicRatio(t *testing.T) {
	// The adversary's best move against DET (abort at x = B/(k-1)) is
	// d = x: cost = k·x+B, OPT = B, ratio = 2 + 1/(k-1).
	for _, k := range []int{2, 3, 4, 8} {
		c := core.Conflict{Policy: core.RequestorWins, K: k, B: 1000}
		x := Deterministic{}.Delay(c, nil)
		ratio := core.Cost(c, x, x+1e-9) / core.OptCost(c, x+1e-9)
		want := Deterministic{}.Ratio(c)
		if math.Abs(ratio-want) > 1e-6 {
			t.Errorf("k=%d: adversarial ratio %v, want %v", k, ratio, want)
		}
		// No other d should do worse for the adversary.
		r := rng.New(5)
		worst := core.WorstCaseRatio(c, Deterministic{}, 1, 3*c.B, 600, 1, r)
		if worst > want+1e-6 {
			t.Errorf("k=%d: sweep found ratio %v above analytic %v", k, worst, want)
		}
	}
}

func TestThresholdContinuity(t *testing.T) {
	// At the feasibility threshold the constrained ratio must equal
	// the unconstrained one (the LP corners coincide).
	for _, k := range []int{3, 4, 6} {
		_, _, s, tt := kPowers(k)
		b := 1000.0
		muStar := b * 2 * tt / (float64(k-2) * s)
		c := core.Conflict{Policy: core.RequestorWins, K: k, B: b, Mean: muStar * (1 - 1e-9)}
		constrained := MeanRW{}.Ratio(c)
		unconstrained := GeneralRW{}.Ratio(c)
		if math.Abs(constrained-unconstrained) > 1e-6 {
			t.Errorf("k=%d RW: ratio discontinuity at threshold: %v vs %v", k, constrained, unconstrained)
		}
	}
	for _, k := range []int{2, 3, 5} {
		w := raW(k)
		b := 1000.0
		muStar := b * 2 * w / (w + 1)
		c := core.Conflict{Policy: core.RequestorAborts, K: k, B: b, Mean: muStar * (1 - 1e-9)}
		constrained := MeanRA{}.Ratio(c)
		unconstrained := ExpRA{}.Ratio(c)
		if math.Abs(constrained-unconstrained) > 1e-6 {
			t.Errorf("k=%d RA: ratio discontinuity at threshold: %v vs %v", k, constrained, unconstrained)
		}
	}
	// k=2 RW: Theorem 5's threshold µ/B = 2(ln4-1).
	b := 500.0
	c := core.Conflict{Policy: core.RequestorWins, K: 2, B: b, Mean: b * 2 * ln4m1 * (1 - 1e-9)}
	if got, want := (MeanRW{}).Ratio(c), (UniformRW{}).Ratio(c); math.Abs(got-want) > 1e-6 {
		t.Errorf("k=2 RW threshold discontinuity: %v vs %v", got, want)
	}
}

func TestMeanStrategiesFallBackAboveThreshold(t *testing.T) {
	r := rng.New(31)
	cRW := core.Conflict{Policy: core.RequestorWins, K: 2, B: 100, Mean: 1000}
	if got, want := (MeanRW{}).Ratio(cRW), 2.0; got != want {
		t.Errorf("MeanRW above threshold: ratio %v, want %v", got, want)
	}
	// Delay distribution must equal the unconstrained one; quick
	// check on the CDF midpoint.
	if got, want := (MeanRW{}).CDF(cRW, 50), (GeneralRW{}).CDF(cRW, 50); got != want {
		t.Errorf("MeanRW above threshold CDF %v, want %v", got, want)
	}
	cRA := core.Conflict{Policy: core.RequestorAborts, K: 2, B: 100, Mean: 1000}
	if got, want := (MeanRA{}).CDF(cRA, 50), (ExpRA{}).CDF(cRA, 50); got != want {
		t.Errorf("MeanRA above threshold CDF %v, want %v", got, want)
	}
	_ = r
}

func TestRatioOrderingsFromDiscussion(t *testing.T) {
	// Section 5.3: for k = 2, requestor aborts beats requestor wins
	// in both regimes.
	b, mu := 2000.0, 500.0
	cw := core.Conflict{Policy: core.RequestorWins, K: 2, B: b, Mean: mu}
	ca := core.Conflict{Policy: core.RequestorAborts, K: 2, B: b, Mean: mu}
	if !(MeanRA{}.Ratio(ca) < MeanRW{}.Ratio(cw)) {
		t.Error("constrained: RA should beat RW at k=2")
	}
	if !(ExpRA{}.Ratio(ca) < UniformRW{}.Ratio(cw)) {
		t.Error("unconstrained: RA should beat RW at k=2")
	}
	// Section 5.4 / discussion: for k >= 3 the ordering flips
	// (unconstrained case).
	for _, k := range []int{3, 4, 8, 16} {
		cwk := core.Conflict{Policy: core.RequestorWins, K: k, B: b}
		cak := core.Conflict{Policy: core.RequestorAborts, K: k, B: b}
		if !(GeneralRW{}.Ratio(cwk) < ExpRA{}.Ratio(cak)) {
			t.Errorf("k=%d: RW should beat RA for chains", k)
		}
	}
}

func TestGeneralRWRatioLimits(t *testing.T) {
	// k=2 must give 2; large k must approach e/(e-1).
	if r := (GeneralRW{}).Ratio(core.Conflict{K: 2, B: 1}); r != 2 {
		t.Fatalf("k=2 ratio %v", r)
	}
	r64 := GeneralRW{}.Ratio(core.Conflict{K: 64, B: 1})
	limit := math.E / (math.E - 1)
	if math.Abs(r64-limit) > 0.02 {
		t.Fatalf("k=64 ratio %v, want near %v", r64, limit)
	}
}

func TestExpRARatioLimits(t *testing.T) {
	if r := (ExpRA{}).Ratio(core.Conflict{K: 2, B: 1}); math.Abs(r-math.E/(math.E-1)) > 1e-12 {
		t.Fatalf("k=2 RA ratio %v", r)
	}
	// Large k: ratio ~ k - 1/2.
	r20 := ExpRA{}.Ratio(core.Conflict{K: 20, B: 1})
	if math.Abs(r20-19.5) > 0.1 {
		t.Fatalf("k=20 RA ratio %v, want ~19.5", r20)
	}
}

func TestImmediateAndFixed(t *testing.T) {
	c := core.Conflict{Policy: core.RequestorWins, K: 2, B: 100}
	if (Immediate{}).Delay(c, nil) != 0 {
		t.Fatal("Immediate should return 0")
	}
	if got := (Fixed{X: 40}).Delay(c, nil); got != 40 {
		t.Fatalf("Fixed(40) = %v", got)
	}
	// Fixed clamps to the useful support.
	c3 := core.Conflict{Policy: core.RequestorWins, K: 3, B: 100}
	if got := (Fixed{X: 400}).Delay(c3, nil); got != 50 {
		t.Fatalf("Fixed clamp = %v, want 50", got)
	}
}

// TestHybridPolicyChoice: under the Section 9 policy choice
// (core.HybridPolicy, whose switch core.TestRule pins), Hybrid's ratio
// is the smaller of the two optimal ratios.
func TestHybridPolicyChoice(t *testing.T) {
	h := Hybrid{}
	for _, k := range []int{2, 3, 5} {
		c := core.Conflict{Policy: core.HybridPolicy(k), K: k, B: 1000}
		rw := GeneralRW{}.Ratio(core.Conflict{Policy: core.RequestorWins, K: k, B: 1000})
		ra := ExpRA{}.Ratio(core.Conflict{Policy: core.RequestorAborts, K: k, B: 1000})
		if got, want := h.Ratio(c), math.Min(rw, ra); math.Abs(got-want) > 1e-12 {
			t.Errorf("k=%d hybrid ratio %v, want %v", k, got, want)
		}
	}
}

func TestHybridDelayInSupport(t *testing.T) {
	r := rng.New(44)
	for _, k := range []int{2, 3, 6} {
		c := core.Conflict{K: k, B: 500, Mean: 20}
		hi := core.MaxUsefulDelay(c)
		for i := 0; i < 1000; i++ {
			d := (Hybrid{}).Delay(c, r)
			if d < 0 || d > hi+1e-9 {
				t.Fatalf("hybrid delay %v outside [0,%v]", d, hi)
			}
		}
	}
}

// TestBackoffB: Corollary 2's multiplicative backoff, as the conflict
// rule applies it to the doomed side's abort cost before a strategy
// prices the grace that AttemptBound bounds.
func TestBackoffB(t *testing.T) {
	backoffB := func(b float64, attempts int, factor, maxB float64) float64 {
		r := core.Rule{Policy: core.RequestorWins, BackoffFactor: factor, MaxBackoffB: maxB}
		return r.Decide(2, core.Side{B: b, Attempts: attempts}, core.Side{B: 1}, nil, nil).B
	}
	if backoffB(100, 0, 2, math.Inf(1)) != 100 {
		t.Fatal("no attempts should keep base")
	}
	if backoffB(100, 3, 2, math.Inf(1)) != 800 {
		t.Fatal("3 doublings of 100 should be 800")
	}
	if backoffB(100, 10, 2, 500) != 500 {
		t.Fatal("backoff should saturate at maxB")
	}
	if backoffB(100, 5, 1, math.Inf(1)) != 100 {
		t.Fatal("factor 1 disables backoff")
	}
}

func TestAttemptBound(t *testing.T) {
	// log2(1024) + log2(4) + log2(2) - log2(64) + 2 = 10+2+1-6+2 = 9.
	if got := AttemptBound(1024, 4, 2, 64); got != 9 {
		t.Fatalf("AttemptBound = %d, want 9", got)
	}
	if got := AttemptBound(1, 1, 2, 1024); got != 1 {
		t.Fatalf("AttemptBound floor = %d, want 1", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"NO_DELAY", "DET", "RRW", "RRW*", "RRW(mu)", "RRA", "RRA(mu)", "HYBRID", "delay_tuned:55"} {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if s == nil {
			t.Errorf("ByName(%q) returned nil", name)
		}
	}
	if f, err := ByName("DELAY_TUNED:12.5"); err != nil {
		t.Errorf("tuned parse: %v", err)
	} else if f.(Fixed).X != 12.5 {
		t.Errorf("tuned X = %v", f.(Fixed).X)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := ByName("delay_tuned:xyz"); err == nil {
		t.Error("bad tuned delay accepted")
	}
}

func TestFigSets(t *testing.T) {
	if got := len(Fig2Set()); got != 5 {
		t.Fatalf("Fig2Set size %d", got)
	}
	fig3 := Fig3Set(123)
	if got := len(fig3); got != 4 {
		t.Fatalf("Fig3Set size %d", got)
	}
	if fig3[1].(Fixed).X != 123 {
		t.Fatal("Fig3Set tuned delay not propagated")
	}
}

func TestForPolicy(t *testing.T) {
	if ForPolicy(core.RequestorAborts, false).Name() != "RRA" {
		t.Fatal("RA unconstrained")
	}
	if ForPolicy(core.RequestorAborts, true).Name() != "RRA(mu)" {
		t.Fatal("RA constrained")
	}
	if ForPolicy(core.RequestorWins, false).Name() != "RRW*" {
		t.Fatal("RW unconstrained")
	}
	if ForPolicy(core.RequestorWins, true).Name() != "RRW(mu)" {
		t.Fatal("RW constrained")
	}
}

func TestDescribe(t *testing.T) {
	c := core.Conflict{Policy: core.RequestorWins, K: 2, B: 100}
	if got := Describe(UniformRW{}, c); got != "RRW (ratio 2.000)" {
		t.Fatalf("Describe = %q", got)
	}
	if got := Describe(Immediate{}, c); got != "NO_DELAY" {
		t.Fatalf("Describe = %q", got)
	}
}

func TestMeanConstrainedAbortProbability(t *testing.T) {
	// Section 5.3: with the adversary at y = B (k=2), the abort
	// probability is 1 - F(B-) ~ 1 for large B, and the paper reports
	// the densities near B: RW ~ ln2/(B(ln4-1)) per unit, RA ~
	// (e-1)/(B(e-2)) per unit. Check the density values at x = B.
	b := 1000.0
	cw := core.Conflict{Policy: core.RequestorWins, K: 2, B: b, Mean: 1}
	pRW := MeanRW{}.PDF(cw, b)
	if math.Abs(pRW-math.Ln2/(b*ln4m1)) > 1e-12 {
		t.Errorf("RW density at B: %v, want %v", pRW, math.Ln2/(b*ln4m1))
	}
	ca := core.Conflict{Policy: core.RequestorAborts, K: 2, B: b, Mean: 1}
	pRA := MeanRA{}.PDF(ca, b)
	if math.Abs(pRA-(math.E-1)/(b*(math.E-2))) > 1e-12 {
		t.Errorf("RA density at B: %v, want %v", pRA, (math.E-1)/(b*(math.E-2)))
	}
}

func BenchmarkDelayUniformRW(b *testing.B) {
	r := rng.New(1)
	c := core.Conflict{Policy: core.RequestorWins, K: 2, B: 1000}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += (UniformRW{}).Delay(c, r)
	}
	_ = sink
}

func BenchmarkDelayExpRA(b *testing.B) {
	r := rng.New(1)
	c := core.Conflict{Policy: core.RequestorAborts, K: 2, B: 1000}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += (ExpRA{}).Delay(c, r)
	}
	_ = sink
}

func BenchmarkDelayMeanRW(b *testing.B) {
	r := rng.New(1)
	c := core.Conflict{Policy: core.RequestorWins, K: 2, B: 2000, Mean: 500}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += (MeanRW{}).Delay(c, r)
	}
	_ = sink
}

func BenchmarkDelayGeneralRW(b *testing.B) {
	r := rng.New(1)
	c := core.Conflict{Policy: core.RequestorWins, K: 5, B: 1000}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += (GeneralRW{}).Delay(c, r)
	}
	_ = sink
}
