package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// rank returns the nearest-rank q-quantile of an ascending slice.
func rank(sorted []uint32, q float64) uint32 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the mean of the middle one or two values; 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, the spread measure the bounds are judged
// against. Quartiles follow Python's statistics.quantiles(v, n=4)
// (exclusive method), so the numbers match the driver's.
func iqrShare(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// latSummary is one segment's request latencies, in microseconds.
type latSummary struct {
	n                        int
	p50, p90, p99, p999, max float64
}

// summarize sorts lat (nanoseconds) in place.
func summarize(lat []uint32) latSummary {
	if len(lat) == 0 {
		return latSummary{}
	}
	slices.Sort(lat)
	us := func(q float64) float64 { return float64(rank(lat, q)) / 1e3 }
	return latSummary{
		n: len(lat), p50: us(0.50), p90: us(0.90), p99: us(0.99), p999: us(0.999),
		max: float64(lat[len(lat)-1]) / 1e3,
	}
}

// procSample is the process-wide cost counters read at a window edge.
type procSample struct {
	mallocs, bytes, pauseNs uint64
	gcCycles                uint32
	heapInuse               uint64
	cpu                     time.Duration
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return procSample{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs,
		gcCycles: ms.NumGC, heapInuse: ms.HeapInuse,
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}
