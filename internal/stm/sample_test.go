package stm

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/metrics"
	"txconflict/internal/rng"
)

// onPlane is DefaultConfig counting into a one-shard plane that samples
// 1 in sampleN blocks.
func onPlane(sampleN int) Config {
	cfg := DefaultConfig()
	cfg.Metrics = metrics.NewPlane(1, sampleN)
	return cfg
}

// rarelySampled is a sample interval no test block count reaches: a
// block on such a plane is, in effect, never sampled.
const rarelySampled = 1 << 40

// bucketOf is the histogram bucket holding v.
func bucketOf(v float64) int {
	i := 0
	for i+1 < metrics.NumBuckets && float64(metrics.BucketLower(i+1)) <= v {
		i++
	}
	return i
}

// TestSampledSummariesTrackExact drives ~1 M mixed blocks — read-only
// and read-modify-write, each spinning a drawn length inside the block
// so durations spread over a few hundred nanoseconds — in 16-block
// handles through two runtimes, one timing every block (SampleN 1) and
// one the default 1 in 64, handle by handle in lockstep on the same
// bodies so both see the same machine. The sampled p50 and p99 of the
// attempt and commit summaries lie within one bucket of the exact ones
// (up to the sample's rank error, see below);
// the commits count is exact after every Release (the total, 16·n + 7,
// is a multiple of neither 16 nor 64); few samples run the phase
// timers; and the samples fall on every
// position of a handle, about evenly, as a draw — unlike every 64th
// block, which would find one position of a 16-block handle only.
func TestSampledSummariesTrackExact(t *testing.T) {
	handles := 62_500
	if testing.Short() {
		handles = 6_250
	}
	const tail = 7
	exact, sampled := New(64, onPlane(1)), New(64, onPlane(metrics.DefaultSampleN))
	// The reference times every block but runs no phase timers, as 63
	// in 64 samples do not.
	exact.phaseMask = math.MaxUint32
	read := func(idx, spin int) func(*Tx) error {
		return func(tx *Tx) error { tx.Load(idx); busySpin(spin); return nil }
	}
	write := func(idx, spin int) func(*Tx) error {
		return func(tx *Tx) error { tx.Store(idx, tx.Load(idx)+1); busySpin(spin); return nil }
	}
	r := rng.New(7)
	var bodies [16]func(*Tx) error
	var atPos [16]int
	var blocks, phasedSamples uint64
	for h := 0; h <= handles; h++ {
		n := 16
		if h == handles {
			n = tail
		}
		for i := range bodies[:n] {
			k := r.Uint64()
			idx, spin := int(k&63), int(k>>8%256)
			if k&64 == 0 {
				bodies[i] = read(idx, spin)
			} else {
				bodies[i] = write(idx, spin)
			}
		}
		for _, rt := range []*Runtime{exact, sampled} {
			w := rt.Worker(0, r)
			for i, fn := range bodies[:n] {
				if err := w.Atomic(fn); err != nil {
					t.Fatal(err)
				}
				if rt == sampled && w.tx.sampled {
					atPos[i]++
					if w.tx.phased {
						phasedSamples++
					}
				}
			}
			w.Release()
			if got, want := rt.Stats.Snapshot()["commits"], blocks+uint64(n); got != want {
				t.Fatalf("after handle %d's Release: %d commits, want %d", h, got, want)
			}
		}
		blocks += uint64(n)
	}

	es, ss := exact.Metrics().Snapshot(), sampled.Metrics().Snapshot()
	if es.Commit.Count != blocks || es.Attempt.Count != blocks {
		t.Fatalf("SampleN 1: %d commits and %d attempts observed over %d blocks", es.Commit.Count, es.Attempt.Count, blocks)
	}
	// 1 in 64 of n blocks: within five standard deviations of n/64.
	mean := float64(blocks) / 64
	if n := float64(ss.Commit.Count); math.Abs(n-mean) > 5*math.Sqrt(mean) {
		t.Fatalf("SampleN 64: %v sampled commits over %d blocks, want about %v", n, blocks, mean)
	}
	// A sample's q-quantile is the exact distribution's at q give or
	// take the sample's own rank error, so the exact quantile is taken
	// over q ± 5σ of that error: on the full run this band sits inside
	// one bucket, and only a short run on a loaded box, whose tail is
	// the scheduler's, widens it.
	for _, h := range []struct {
		name          string
		exact, sample *metrics.HistSnapshot
	}{{"attempt", &es.Attempt, &ss.Attempt}, {"commit", &es.Commit, &ss.Commit}} {
		for _, q := range []float64{0.5, 0.99} {
			d := 5 * math.Sqrt(q*(1-q)/float64(h.sample.Count))
			lo, hi := h.exact.Quantile(max(q-d, 1e-9)), h.exact.Quantile(min(q+d, 1))
			if s := h.sample.Quantile(q); bucketOf(s) < bucketOf(lo)-1 || bucketOf(s) > bucketOf(hi)+1 {
				t.Errorf("%s p%v: sampled %v ns is more than a bucket outside the exact %v–%v ns (p%.4g–p%.4g)",
					h.name, q*100, s, lo, hi, 100*max(q-d, 0), 100*min(q+d, 1))
			}
		}
	}
	// The phase timers' clock reads would double a short block's
	// duration, so they run on an independent 1-in-64 draw: about 1 in
	// 64 samples carries them, far from all.
	if phasedSamples*8 > ss.Commit.Count {
		t.Errorf("%d of %d sampled blocks also ran the phase timers, want about 1 in 64", phasedSamples, ss.Commit.Count)
	}
	perPos := float64(ss.Commit.Count) / 16
	for i, c := range atPos {
		if float64(c) < perPos/2 || float64(c) > 2*perPos {
			t.Errorf("position %d of a handle was sampled %d times, want about %.0f (samples by position %v)", i, c, perPos, atPos)
			break
		}
	}
}

var errAbortedOnPurpose = errors.New("aborted on purpose")

// TestCommitCountExact: the commits count loses no block between a
// descriptor's private count and its flush, whatever ends the handle's
// blocks. Two goroutines on one shard run handles of 1 to 20 blocks —
// mixed reads, read-modify-writes of four shared words (so grace waits,
// kills and retries flush mid-handle) and an occasional explicit abort,
// which is no commit — in every commit mode; after each of its own
// Releases a goroutine finds at least every block it committed counted,
// and once both are done the count is exact. Small enough to repeat
// (make race-short runs it 200 times at -cpu 2).
func TestCommitCountExact(t *testing.T) {
	for _, mode := range benchModes() {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg
			cfg.Metrics = metrics.NewPlane(1, metrics.DefaultSampleN)
			rt := New(8, cfg)
			var mu sync.Mutex
			var total uint64
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rng.New(uint64(g) + 1)
					var mine uint64
					for h := 0; h < 200; h++ {
						w := rt.Worker(g, r)
						for n := 1 + int(r.Uint64n(20)); n > 0; n-- {
							k := r.Uint64()
							idx := int(k & 3)
							var err error
							switch k >> 2 % 8 {
							case 0:
								err = w.Atomic(func(tx *Tx) error { tx.Store(4+g, 1); return errAbortedOnPurpose })
							case 1, 2, 3:
								err = w.Atomic(func(tx *Tx) error { tx.Load(idx); return nil })
							default:
								err = w.Atomic(func(tx *Tx) error { tx.Store(idx, tx.Load(idx)+1); return nil })
							}
							if err == nil {
								mine++
							}
						}
						w.Release()
						if got := rt.Stats.Snapshot()["commits"]; got < mine {
							t.Errorf("goroutine %d released its handle with %d blocks committed, the plane counts %d", g, mine, got)
							return
						}
					}
					mu.Lock()
					total += mine
					mu.Unlock()
				}(g)
			}
			wg.Wait()
			if got := rt.Stats.Snapshot()["commits"]; got != total {
				t.Fatalf("commits = %d, want exactly the %d blocks that committed", got, total)
			}
		})
	}
}

// TestStartStampsChain pins where a block's start stamp — what a
// requestor prices the block's abort cost B from — comes from, on a
// plane that samples every block and one that in effect samples none.
// The first block of a handle starts at the handle's opening read; a
// block after a writer, at the stamp that writer read at its end; and
// the stamp reaches startNanos only at the block's first lock. An
// unsampled read-only block reads no clock: it leaves the stamp it
// started at to the next block, a writer publishes that carried stamp,
// and a sampled block does not start at it but reads the clock afresh.
func TestStartStampsChain(t *testing.T) {
	for _, sampleN := range []int{1, rarelySampled} {
		rt := New(4, onPlane(sampleN))
		before := nanos()
		w := rt.Worker(0, rng.New(1))
		opened := w.tx.blockEnd
		if opened < before {
			t.Fatalf("SampleN %d: the handle opened at stamp %d, want a read ≥ %d", sampleN, opened, before)
		}
		var published int64
		_ = w.Atomic(func(tx *Tx) error {
			if tx.published {
				t.Error("the start stamp was published before the first lock")
			}
			tx.Store(0, 1)
			published = tx.startNanos.Load()
			return nil
		})
		if published != opened {
			t.Errorf("SampleN %d: a handle's first writer published %d, want the handle's opening stamp %d", sampleN, published, opened)
		}
		if !w.chained || w.carried {
			t.Fatalf("SampleN %d: a writer did not read the clock at its end", sampleN)
		}
		end := w.tx.blockEnd
		_ = w.Atomic(func(tx *Tx) error { tx.Store(1, 1); published = tx.startNanos.Load(); return nil })
		if published != end {
			t.Errorf("SampleN %d: writer after a writer published %d, want the previous block's end stamp %d", sampleN, published, end)
		}

		end = w.tx.blockEnd
		_ = w.Atomic(func(tx *Tx) error { tx.Load(0); return nil })
		if sampleN == 1 {
			w.Release()
			continue
		}
		if !w.chained || !w.carried || w.tx.blockEnd != end {
			t.Fatalf("unsampled read-only block left chained %v, carried %v, stamp %d; want the stamp it started at, %d, carried on",
				w.chained, w.carried, w.tx.blockEnd, end)
		}
		_ = w.Atomic(func(tx *Tx) error { tx.Store(2, 1); published = tx.startNanos.Load(); return nil })
		if published != end {
			t.Errorf("writer after an unsampled read-only block published %d, want the carried stamp %d", published, end)
		}

		_ = w.Atomic(func(tx *Tx) error { tx.Load(0); return nil })
		carried := w.tx.blockEnd
		rt.sampleMask = 0 // the next draw samples
		before = nanos()
		_ = w.Atomic(func(tx *Tx) error { tx.Load(0); return nil })
		if !w.tx.sampled || w.tx.blockStart < before {
			t.Errorf("sampled block after a carried stamp %d started at %d (sampled %v), want a fresh read ≥ %d",
				carried, w.tx.blockStart, w.tx.sampled, before)
		}
		w.Release()
	}
}

// recordB is a Strategy that records every abort cost it is asked to
// price and requests no delay.
type recordB struct {
	mu *sync.Mutex
	bs *[]float64
}

func (c recordB) Delay(conf core.Conflict, _ *rng.Rand) float64 {
	c.mu.Lock()
	*c.bs = append(*c.bs, conf.B)
	c.mu.Unlock()
	return 0
}
func (c recordB) Name() string { return "record-B" }

// TestReadOnlyRequestorPricesFromItsStart: under requestor aborts the
// requestor's own B is priced, and it is the requestor's running time
// (footnote 1) even for an unsampled read-only block, which publishes
// no stamp: its first attempt spins for a while before its Load meets
// the receiver's lock, and the first B the strategy sees covers that
// spin on top of CleanupCost.
func TestReadOnlyRequestorPricesFromItsStart(t *testing.T) {
	const spin = 200 * time.Microsecond
	var mu sync.Mutex
	var bs []float64
	tune := func(cfg *Config) {
		cfg.Strategy = recordB{&mu, &bs}
		cfg.Metrics = metrics.NewPlane(1, rarelySampled)
	}
	rt := stageConflict(t, core.RequestorAborts, incrementAndPark, func(tx *Tx) {
		if tx.Attempts() == 0 {
			for t0 := nanos(); nanos()-t0 < int64(spin); {
			}
		}
		tx.Load(0)
	}, tune)
	cleanup := float64(rt.Policy().CleanupCost.Nanoseconds())
	if len(bs) == 0 || bs[0] < cleanup+float64(spin) {
		t.Fatalf("abort costs priced %v, want the first at least CleanupCost + the %v spin = %v ns", bs, spin, cleanup+float64(spin))
	}
}
