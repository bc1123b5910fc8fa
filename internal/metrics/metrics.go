// Package metrics is the runtime's always-on observability plane and
// the one place a runtime event is counted: every stm.Runtime has a
// Plane, stm.Stats is a view of it, and the benchmark's per-layer
// metrics read the difference of two of its snapshots. It answers the questions bare
// counters cannot ("what is commit p99 right now?") at a cost the
// per-transaction traces of internal/trace cannot match: zero
// allocations, and for a block that commits no shared counter written at
// all — the runtime counts the block in its descriptor, notes a sampled
// block's two durations in a ledger private to the descriptor, and
// hands the plane up to sixteen blocks at a time (CounterCommits and
// Shard.ObserveCommits), a handful of uncontended atomic adds per
// ledger. Only the 1-in-N sampled blocks read the clock for the
// latency histograms. The rarer events (an aborted attempt, a grace
// wait, a combiner round, a sampled phase) cost their few adds each.
//
// Three pieces:
//
//   - Histogram: a log-bucketed latency histogram (8 sub-buckets per
//     power of two, so any quantile estimate is within ~6.25% relative
//     error of the exact sample). Buckets are plain atomic counters —
//     concurrent Observe calls never lock — and snapshots are value
//     types that merge and subtract, so per-worker shards and rolling
//     windows fall out of the representation.
//   - AbortReason / Counter / CommitPhase: the abort-reason taxonomy
//     that replaces a single aborts counter, the index of the plain
//     event counters (kills, extensions, combiner rounds, folds), and
//     the commit-phase timer labels (validation, lock acquisition,
//     write-back, commit-clock advance) sampled 1-in-N on the commit
//     path.
//   - Plane: per-worker cache-line-padded shards of the above, plus a
//     merged PlaneSnapshot and a Prometheus text-exposition writer
//     (prom.go) — the backing store for txkvd's GET /metrics and
//     /v1/stats, for stm.Stats, and for bench/'s per-layer metrics.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket layout: values 0..7 get exact unit buckets; every
// power-of-two octave above that is split into 8 sub-buckets, so the
// bucket width never exceeds 1/8 of the bucket's lower bound. With
// the quantile estimator returning bucket midpoints, the worst-case
// relative error of any reported quantile is half that: 1/16.
const (
	histSubBits  = 3
	histSubCount = 1 << histSubBits // 8 sub-buckets per octave

	// NumBuckets covers the full uint64 range: 8 exact unit buckets,
	// then 8 buckets for each of the 61 octaves [2^3, 2^64).
	NumBuckets = (64-histSubBits)*histSubCount + histSubCount // 496
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 // e >= histSubBits
	return (e-histSubBits)*histSubCount + int(v>>uint(e-histSubBits))
}

// BucketLower returns the inclusive lower bound of bucket i.
func BucketLower(i int) uint64 {
	if i < 2*histSubCount {
		return uint64(i)
	}
	g := i/histSubCount - 1 // octave group >= 1
	return uint64(histSubCount+i%histSubCount) << uint(g)
}

// Histogram is a lock-free log-bucketed histogram. The zero value is
// ready to use. Observe is safe for concurrent use; Snapshot may race
// with writers and returns a consistent-enough view (each bucket is
// individually exact, the total may trail by in-flight observations —
// the standard monitoring trade).
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // wraps after ~584 years of nanoseconds
}

// Observe records one value (negative values clamp to zero, so
// clock-skewed durations cannot corrupt the layout).
func (h *Histogram) Observe(v int64) {
	u := clampNs(v)
	h.counts[bucketIndex(u)].Add(1)
	h.count.Add(1)
	h.sum.Add(u)
}

func clampNs(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// bucketRun is one pass of observations into one histogram with the
// adds coalesced: consecutive values landing in one bucket cost a single
// bucket add, and the pass one count add and one sum add (flush). The
// histogram ends exactly as after an Observe per value.
type bucketRun struct {
	bkt int    // bucket of the open run
	n   uint64 // its length so far (0 = none open)
	sum uint64 // every value of the pass
}

// add records the clamped value v, which lies in bucket bkt.
func (r *bucketRun) add(h *Histogram, bkt int, v uint64) {
	if bkt != r.bkt && r.n > 0 {
		h.counts[r.bkt].Add(r.n)
		r.n = 0
	}
	r.bkt = bkt
	r.n++
	r.sum += v
}

// flush closes a pass of n values.
func (r *bucketRun) flush(h *Histogram, n int) {
	if r.n > 0 {
		h.counts[r.bkt].Add(r.n)
	}
	h.count.Add(uint64(n))
	h.sum.Add(r.sum)
}

// Snapshot copies the histogram into a mergeable value.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram. It is a plain
// value: Merge accumulates shards, Sub forms rolling windows, and the
// quantile estimators read it without further synchronization.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64
	Sum    uint64
}

// Merge adds o into s (shard aggregation). Merging is commutative and
// associative, so any merge order yields the same snapshot.
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Sub returns s minus prev, the histogram of everything observed
// between the two snapshots. prev must be an earlier snapshot of the
// same histogram (bucket counts only grow).
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := s
	for i := range out.Counts {
		out.Counts[i] -= prev.Counts[i]
	}
	out.Count -= prev.Count
	out.Sum -= prev.Sum
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// values: the midpoint of the bucket holding the rank-ceil(q*n)
// sample, hence within 1/16 relative error of the exact order
// statistic. Returns 0 when the snapshot is empty.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			lo := BucketLower(i)
			if i+1 < NumBuckets {
				return float64(lo+BucketLower(i+1)) / 2
			}
			return float64(lo)
		}
	}
	return 0
}

// Mean returns the exact mean of the observed values (0 when empty).
func (s *HistSnapshot) Mean() float64 { return ratio(s.Sum, s.Count) }

// Fingerprint hashes the bucket counts (FNV-1a), pinning the bucket
// layout and the determinism of a seeded run in golden tests: any
// change to the bucketing scheme or to what a code path observes
// shows up as a fingerprint change.
func (s *HistSnapshot) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for _, c := range s.Counts {
		mix(c)
	}
	mix(s.Count)
	mix(s.Sum)
	return h
}

// Quantiles is the fixed ladder reported everywhere a summary is
// rendered (the /v1/stats latency section, BENCH cells, stderr
// reports): p50, p90, p99, p999.
type Quantiles struct {
	P50  float64 `json:"p50Ns"`
	P90  float64 `json:"p90Ns"`
	P99  float64 `json:"p99Ns"`
	P999 float64 `json:"p999Ns"`
	Mean float64 `json:"meanNs"`
	N    uint64  `json:"count"`
}

// Summary extracts the standard quantile ladder from a snapshot.
func (s *HistSnapshot) Summary() Quantiles {
	return Quantiles{
		P50:  s.Quantile(0.50),
		P90:  s.Quantile(0.90),
		P99:  s.Quantile(0.99),
		P999: s.Quantile(0.999),
		Mean: s.Mean(),
		N:    s.Count,
	}
}
