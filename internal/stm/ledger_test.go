package stm

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
)

// scrape calls pass over and over on a goroutine of its own, the way a
// /metrics scraper races live handles, until the returned stop is
// called; it returns once the first pass is through. Under -race it is
// what shows that a snapshot reads nothing a commit writes in the plain.
func scrape(pass func()) (stop func()) {
	quit, first := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-quit:
				return
			default:
			}
			pass()
			if n == 0 {
				close(first)
			}
			runtime.Gosched()
		}
	}()
	<-first
	return func() { close(quit); wg.Wait() }
}

// commits is the plane's exact commit count. The ledger tests run on a
// plane that samples every block (onPlane(1)), so the attempt and commit
// histograms count every attempt and every commit too.
func commits(rt *Runtime) uint64 { return rt.Stats.Snapshot()["commits"] }

// TestLedgerHoldsBackAtMostSixteen: a block that commits writes the
// plane nothing — the count moves sixteen blocks at a time while the
// handle stays open, is exact after every sixteenth block and after
// Release — and a concurrent scraper never finds it more than sixteen
// behind the blocks that have returned, nor ahead of the blocks begun.
// Every block is sampled, so after Release the histograms hold every
// attempt and commit too.
func TestLedgerHoldsBackAtMostSixteen(t *testing.T) {
	for _, m := range []struct {
		name string
		lazy bool
	}{{"eager", false}, {"lazy", true}} {
		t.Run(m.name, func(t *testing.T) {
			cfg := onPlane(1)
			cfg.Lazy = m.lazy
			rt := New(8, cfg)
			var begun, returned atomic.Uint64
			var last uint64
			stop := scrape(func() {
				lo := returned.Load()
				c := commits(rt)
				hi := begun.Load()
				if c+ledgerCap < lo || c > hi || c < last {
					t.Errorf("scraped %d commits (%d the pass before) with %d blocks returned before and %d begun after the snapshot",
						c, last, lo, hi)
				}
				last = c
			})
			defer stop()

			const blocks = 5*ledgerCap + 7
			w := rt.Worker(0, rng.New(1))
			for i := 1; i <= blocks; i++ {
				begun.Add(1)
				if err := w.Atomic(func(tx *Tx) error { tx.Store(i&7, tx.Load(i&7)+1); return nil }); err != nil {
					t.Fatal(err)
				}
				returned.Add(1)
				if got, want := commits(rt), uint64(i/ledgerCap*ledgerCap); got != want {
					t.Fatalf("after block %d of an open handle the plane holds %d commits, want %d", i, got, want)
				}
			}
			w.Release()
			snap := rt.Metrics().Snapshot()
			if snap.Commit.Count != blocks || snap.Attempt.Count != blocks {
				t.Fatalf("after Release: %d commits, %d attempts, want %d each", snap.Commit.Count, snap.Attempt.Count, blocks)
			}
		})
	}
}

// TestLedgerFlushedBeforeGraceWait: a handle with committed blocks in
// its ledger runs into a locked word. By the time it is registered as a
// waiter on the owner — before its grace wait has ended, let alone the
// block — the plane has every one of those blocks.
func TestLedgerFlushedBeforeGraceWait(t *testing.T) {
	cfg := onPlane(1)
	cfg.Strategy = unclampedGrace(10 * time.Second / time.Nanosecond) // never expires in here
	cfg.MaxRetries = 0
	rt := New(4, cfg)
	stop := scrape(func() { commits(rt) })
	defer stop()

	held := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // receiver: parks holding word 0
		defer wg.Done()
		_ = rt.AtomicWorker(0, rng.New(1), func(tx *Tx) error {
			tx.Store(0, 1)
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	const before = 3
	go func() { // requestor: three quiet blocks, then the conflict
		defer wg.Done()
		w := rt.Worker(1, rng.New(2))
		defer w.Release()
		for i := 1; i <= before; i++ {
			_ = w.Atomic(func(tx *Tx) error { tx.Store(i, 1); return nil })
		}
		_ = w.Atomic(func(tx *Tx) error { tx.Store(0, tx.Load(0)+1); return nil })
	}()

	owner := (*rt.descs.Load())[lockOwner(rt.meta[0].lock.Load())]
	deadline := time.Now().Add(10 * time.Second)
	for owner.waiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the requestor never started its grace wait")
		}
		runtime.Gosched()
	}
	if s := rt.Metrics().Snapshot(); s.Commit.Count != before || s.Grace.Count != 0 {
		t.Errorf("requestor parked in its grace wait: plane holds %d commits and %d ended waits, want %d and 0",
			s.Commit.Count, s.Grace.Count, before)
	}
	close(release)
	wg.Wait()
	if got := commits(rt); got != before+2 {
		t.Fatalf("after both released: %d commits, want %d", got, before+2)
	}
}

// TestLedgerFlushedOnRetryErrorAndPanic: the three ways a block ends
// other than by committing each let go of the ledger first. Seen from
// inside the retry of an aborted attempt, after a block that returned
// an error, and after a panic out of fn on a handle that is then never
// released, the plane holds every block the handle committed before.
func TestLedgerFlushedOnRetryErrorAndPanic(t *testing.T) {
	cfg := onPlane(1)
	cfg.MaxRetries = 0
	rt := New(4, cfg)
	stop := scrape(func() { commits(rt) })
	defer stop()
	w := rt.Worker(0, rng.New(1)) // leaked on purpose: no Release below
	quiet := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := w.Atomic(func(tx *Tx) error { tx.Store(1, tx.Load(1)+1); return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	expect := func(when string, s metrics.PlaneSnapshot, commits, attempts uint64) {
		t.Helper()
		if s.Commit.Count != commits || s.Attempt.Count != attempts {
			t.Fatalf("%s: plane holds %d commits and %d attempts, want %d and %d",
				when, s.Commit.Count, s.Attempt.Count, commits, attempts)
		}
	}

	quiet(2)
	expect("two blocks into an open handle", rt.Metrics().Snapshot(), 0, 0)
	var inRetry metrics.PlaneSnapshot
	_ = w.Atomic(func(tx *Tx) error {
		if tx.Attempts() == 0 {
			tx.abort(metrics.AbortValidation)
		}
		inRetry = rt.Metrics().Snapshot()
		return nil
	})
	expect("inside the retry", inRetry, 2, 3) // the aborted attempt is observed too
	// The retried block's own commit is the ledger's one entry now.

	quiet(2)
	errNope := errors.New("nope")
	if err := w.Atomic(func(tx *Tx) error { tx.Store(2, 9); return errNope }); !errors.Is(err, errNope) {
		t.Fatalf("explicit abort returned %v", err)
	}
	expect("after a block that returned an error", rt.Metrics().Snapshot(), 5, 7)

	quiet(3)
	expectPanic(t, func() {
		_ = w.Atomic(func(tx *Tx) error { tx.Store(2, 9); panic("user bug") })
	})
	// A panicked attempt is not an observation (as before); what came
	// before it is all there.
	expect("after a panic out of fn", rt.Metrics().Snapshot(), 8, 10)
	if s := rt.Metrics().Snapshot(); s.Aborts[metrics.AbortValidation] != 1 || s.Aborts[metrics.AbortExplicit] != 1 {
		t.Fatalf("abort taxonomy %v, want one validation and one explicit", s.AbortCounts())
	}
}
