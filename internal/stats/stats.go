// Package stats provides the summary statistics used when aggregating
// experiment results: online mean/variance (Welford) with
// normal-approximation confidence intervals, and a zero-safe ratio.
// Histograms and quantiles live in internal/metrics.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates mean and variance in a single numerically
// stable pass. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 for no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (0 for no observations).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 for no observations).
func (w *Welford) Max() float64 { return w.max }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI95 returns the half-width of the 95% normal-approximation
// confidence interval on the mean.
func (w *Welford) CI95() float64 { return 1.96 * w.StdErr() }

// Merge combines another accumulator into w (parallel Welford).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n1, n2 := float64(w.n), float64(o.n)
	delta := o.mean - w.mean
	tot := n1 + n2
	w.mean += delta * n2 / tot
	w.m2 += o.m2 + delta*delta*n1*n2/tot
	w.n += o.n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// String summarizes the accumulator.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", w.n, w.Mean(), w.StdDev(), w.min, w.max)
}

// Ratio computes a/b, returning 0 when b is 0. Used for throughput
// and competitive-ratio reporting where empty cells are legitimate.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
