package stats

import (
	"math"
	"testing"
	"testing/quick"

	"txconflict/internal/rng"
)

func TestWelfordAgainstDirect(t *testing.T) {
	r := rng.New(1)
	var w Welford
	xs := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		x := r.NormFloat64()*3 + 10
		xs = append(xs, x)
		w.Add(x)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	variance := 0.0
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("welford mean %v vs direct %v", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-variance) > 1e-9 {
		t.Fatalf("welford variance %v vs direct %v", w.Variance(), variance)
	}
	if w.N() != 1000 {
		t.Fatalf("n = %d", w.N())
	}
}

func TestWelfordMinMax(t *testing.T) {
	var w Welford
	for _, x := range []float64{3, -1, 7, 2} {
		w.Add(x)
	}
	if w.Min() != -1 || w.Max() != 7 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 || w.CI95() != 0 {
		t.Fatal("empty accumulator should be all zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Fatalf("single-element stats wrong: %v", w.String())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	f := func(seed uint32, split uint8) bool {
		r := rng.New(uint64(seed))
		n := 100
		k := int(split)%n + 1
		var all, a, b Welford
		for i := 0; i < n; i++ {
			x := r.Float64()*100 - 50
			all.Add(x)
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-7 &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	before := a.String()
	a.Merge(&b) // merging empty must be a no-op
	if a.String() != before {
		t.Fatal("merge with empty changed accumulator")
	}
	b.Merge(&a) // merging into empty copies
	if b.Mean() != 2 || b.N() != 2 {
		t.Fatalf("merge into empty: %v", b.String())
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 || Ratio(1, 0) != 0 {
		t.Fatal("Ratio broken")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	r := rng.New(9)
	var small, large Welford
	for i := 0; i < 100; i++ {
		small.Add(r.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(r.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i))
	}
}
