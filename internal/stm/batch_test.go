package stm

import (
	"sync"
	"testing"
	"time"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
)

// batchedConfig is the lazy group-commit configuration the batch
// tests build on.
func batchedConfig(batch int) Config {
	cfg := DefaultConfig()
	cfg.Lazy = true
	cfg.CommitBatch = batch
	return cfg
}

// TestBatchUncontended checks the degenerate single-member batches of
// an uncontended runtime: every commit goes through the combiner,
// values land, and the ledger adds up.
func TestBatchUncontended(t *testing.T) {
	rt := New(16, batchedConfig(4))
	r := rng.New(1)
	const n = 100
	for i := 0; i < n; i++ {
		if err := rt.Atomic(r, func(tx *Tx) error {
			tx.Store(i%16, tx.Load(i%16)+1)
			tx.Store(15, uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats.Snapshot()
	if got := st["commits"]; got != n {
		t.Fatalf("commits = %d, want %d", got, n)
	}
	if got := st["batches"]; got != n {
		t.Fatalf("batches = %d, want %d (every commit combines)", got, n)
	}
	if got := st["batchCommits"]; got != n {
		t.Fatalf("batchCommits = %d, want %d", got, n)
	}
	if rt.ReadCommitted(15) != n-1 {
		t.Fatalf("word 15 = %d, want %d", rt.ReadCommitted(15), n-1)
	}
}

// TestBatchEagerIgnored pins that CommitBatch has no effect outside
// lazy mode: the eager path takes encounter locks and never combines.
func TestBatchEagerIgnored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CommitBatch = 8 // eager: must be ignored
	rt := New(4, cfg)
	r := rng.New(2)
	for i := 0; i < 10; i++ {
		if err := rt.Atomic(r, func(tx *Tx) error {
			tx.Store(0, tx.Load(0)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if batches := rt.Stats.Snapshot()["batches"]; rt.batch != nil || batches != 0 {
		t.Fatalf("eager runtime built combiner lanes (batches=%d)", batches)
	}
	if rt.ReadCommitted(0) != 10 {
		t.Fatalf("word 0 = %d, want 10", rt.ReadCommitted(0))
	}
}

// TestBatchContendedCounter hammers one shared counter from many
// goroutines through the combiner: the classic lost-update shape.
// Every same-word read-modify-write pair conflicts inside a batch, so
// the intra-batch admission check must fail all but one member per
// round and the failed members must retry to a correct total.
func TestBatchContendedCounter(t *testing.T) {
	rt := New(4, batchedConfig(4))
	const workers, per = 8, 200
	var wg sync.WaitGroup
	root := rng.New(7)
	for w := 0; w < workers; w++ {
		r := root.Split()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = rt.Atomic(r, func(tx *Tx) error {
					tx.Store(0, tx.Load(0)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := rt.ReadCommitted(0); got != workers*per {
		t.Fatalf("counter = %d, want %d (stats %v)", got, workers*per, rt.Stats.Snapshot())
	}
	if commits := rt.Stats.Snapshot()["commits"]; commits != workers*per {
		t.Fatalf("commits = %d, want %d", commits, workers*per)
	}
}

// TestBatchDisjointMembers runs goroutines with disjoint write sets
// through one lane: disjoint members must all be admitted (no false
// intra-batch conflicts), and the totals must land per word.
func TestBatchDisjointMembers(t *testing.T) {
	const workers, per = 6, 300
	rt := New(workers, batchedConfig(workers))
	rt.setBatchShards(1) // one lane: all commits may combine
	var wg sync.WaitGroup
	root := rng.New(11)
	for w := 0; w < workers; w++ {
		w, r := w, root.Split()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = rt.Atomic(r, func(tx *Tx) error {
					tx.Store(w, tx.Load(w)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if got := rt.ReadCommitted(w); got != per {
			t.Fatalf("word %d = %d, want %d (stats %v)", w, got, per, rt.Stats.Snapshot())
		}
	}
	if fails := rt.Stats.Snapshot()["batchFails"]; fails != 0 {
		t.Fatalf("disjoint write sets failed admission %d times", fails)
	}
}

// TestBatchIntraBatchConflictStaged stages a deterministic two-member
// batch over the same read-modify-write word: the second member must
// fail admission (stale read), retry, and both increments must land.
func TestBatchIntraBatchConflictStaged(t *testing.T) {
	rt := New(2, batchedConfig(2))
	rt.setBatchShards(1)
	root := rng.New(13)
	rA, rB := root.Split(), root.Split()

	// Worker B parks inside its first attempt until A is committing,
	// so B's commit enqueues while A combines — or A's commit lands
	// first and B revalidates. Either way both must total correctly.
	bStarted := make(chan struct{})
	aDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		first := true
		_ = rt.Atomic(rB, func(tx *Tx) error {
			v := tx.Load(0)
			if first {
				first = false
				close(bStarted)
				<-aDone // A commits while B holds a stale read
			}
			tx.Store(0, v+1)
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		<-bStarted
		_ = rt.Atomic(rA, func(tx *Tx) error {
			tx.Store(0, tx.Load(0)+1)
			return nil
		})
		close(aDone)
	}()
	wg.Wait()
	if got := rt.ReadCommitted(0); got != 2 {
		t.Fatalf("word 0 = %d, want 2 (stats %v)", got, rt.Stats.Snapshot())
	}
}

// TestBatchReadOnlySkipsCombiner pins that read-only transactions
// bypass the combiner entirely (nothing to hand off).
func TestBatchReadOnlySkipsCombiner(t *testing.T) {
	rt := New(4, batchedConfig(4))
	r := rng.New(17)
	for i := 0; i < 20; i++ {
		if err := rt.Atomic(r, func(tx *Tx) error {
			_ = tx.Load(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.Stats.Snapshot()["batches"]; got != 0 {
		t.Fatalf("read-only transactions combined %d times", got)
	}
}

// TestBatchConfigString pins the report rendering of a batched
// configuration.
func TestBatchConfigString(t *testing.T) {
	cfg := batchedConfig(8)
	if s := cfg.String(); s != "requestor-wins/RRW/lazy/b8" {
		t.Fatalf("cfg.String() = %q", s)
	}
	cfg.CommitBatch = 0
	if s := cfg.String(); s != "requestor-wins/RRW/lazy" {
		t.Fatalf("cfg.String() = %q", s)
	}
}

// TestBatchQueueBound checks that the bounded queue never admits more
// than CommitBatch write sets into one combiner round.
func TestBatchQueueBound(t *testing.T) {
	const batch = 2
	rt := New(8, batchedConfig(batch))
	rt.setBatchShards(1)
	const workers, per = 8, 100
	var wg sync.WaitGroup
	root := rng.New(23)
	for w := 0; w < workers; w++ {
		w, r := w, root.Split()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = rt.Atomic(r, func(tx *Tx) error {
					tx.Store(w, tx.Load(w)+1)
					return nil
				})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("batched commits wedged (stats %v)", rt.Stats.Snapshot())
	}
	st := rt.Stats.Snapshot()
	commits := st["batchCommits"] + st["batchFails"]
	if batches := st["batches"]; commits > batches*batch {
		t.Fatalf("%d outcomes across %d batches exceeds the bound %d per round",
			commits, batches, batch)
	}
	for w := 0; w < workers; w++ {
		if got := rt.ReadCommitted(w); got != per {
			t.Fatalf("word %d = %d, want %d", w, got, per)
		}
	}
}

// stagedBatchRuntime is the runtime the staged combiner tests share:
// four words, one lane, two members a round, all four committed by one
// block so their pre-batch version (1) and value (10+idx) are told
// apart from a fresh word's, and the commit clock stands at 1.
func stagedBatchRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt := New(4, cfg)
	rt.setBatchShards(1)
	if err := rt.Atomic(rng.New(1), func(tx *Tx) error {
		for idx := 0; idx < 4; idx++ {
			tx.Store(idx, uint64(10+idx))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c := rt.clock.Load(); c != 1 {
		t.Fatalf("staging: commit clock %d, want 1", c)
	}
	for idx := 0; idx < 4; idx++ {
		if l := rt.meta[idx].lock.Load(); l != unlockedAt(1) {
			t.Fatalf("staging: word %d lock %#x, want version 1", idx, l)
		}
	}
	return rt
}

// enqueueByHand links w's descriptor into the lane as a waiter that
// read word r at version ver and buffered word w = val, as a member
// parked in the queue would have.
func enqueueByHand(rt *Runtime, w *Worker, r int, ver uint64, idx int, val uint64) {
	m := w.tx
	m.reset(nanos())
	m.reads = append(m.reads, readEntry{idx: r, ver: ver})
	m.writeIdx = append(m.writeIdx, idx)
	m.writeVals[idx] = val
	sh := &rt.batch[0]
	sh.queued.Add(1)
	m.batchNext.Store(sh.head.Load())
	sh.head.Store(m)
}

// TestBatchFailedOnlyWriterKeepsVersion stages a two-member batch on
// one lane: the combiner writes word 0, and the queued member read word
// 0 and writes word 2. The combiner is admitted first, so the member
// fails the lost-update check — and word 2, which only it writes, is
// released at its pre-batch version, the round advancing the commit
// clock once, for word 0.
func TestBatchFailedOnlyWriterKeepsVersion(t *testing.T) {
	rt := stagedBatchRuntime(t, batchedConfig(2))
	wB := rt.Worker(1, rng.New(2))
	defer wB.Release()
	wA := rt.Worker(0, rng.New(3))
	defer wA.Release()
	if err := wA.Atomic(func(tx *Tx) error {
		enqueueByHand(rt, &wB, 0, 1, 2, 99)
		tx.Store(0, 20)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := wB.tx.state.Load() & stateStatusMask; st != statusBatchFail {
		t.Fatalf("queued member stamped %d, want statusBatchFail", st)
	}
	if l, v := rt.meta[0].lock.Load(), rt.meta[0].val.Load(); l != unlockedAt(2) || v != 20 {
		t.Fatalf("word 0: lock %#x, value %d; want version 2, value 20", l, v)
	}
	if l, v, c := rt.meta[2].lock.Load(), rt.meta[2].val.Load(), rt.clock.Load(); l != unlockedAt(1) || v != 12 || c != 2 {
		t.Fatalf("word 2: lock %#x, value %d, commit clock %d; want version 1, value 12, clock 2", l, v, c)
	}
	if s := rt.Stats.Snapshot(); s["batches"] != 2 || s["batchCommits"] != 2 || s["batchFails"] != 1 {
		t.Fatalf("stats %v: want 2 batches, 2 batch commits, 1 batch fail", s)
	}
}

// TestBatchCombinerAbortReleasesAtPreBatchVersion stages a combiner
// that dies mid-acquisition: it holds word 0 (its own) and word 1 (the
// queued member's) when it meets word 3 locked by another descriptor,
// and either yields to it (the holder is irrevocable) or is killed while
// it waits. Either way every word it acquired is released at its
// pre-batch version with no clock advance, the drained member is
// stamped statusBatchFail, and the member's retry lands exactly once.
func TestBatchCombinerAbortReleasesAtPreBatchVersion(t *testing.T) {
	for _, c := range []struct {
		name        string
		irrevocable bool
		strategy    unclampedGrace
		want        metrics.AbortReason
	}{
		{"yields to irrevocable", true, 0, metrics.AbortLockTimeout},
		{"killed", false, unclampedGrace(10 * time.Second), metrics.AbortKilled},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := batchedConfig(2)
			cfg.Strategy = c.strategy
			rt := stagedBatchRuntime(t, cfg)
			sh := &rt.batch[0]

			// The member queues behind a lane the test holds.
			sh.busy.Store(1)
			memberDone := make(chan error)
			go func() {
				memberDone <- rt.Atomic(rng.New(4), func(tx *Tx) error { tx.Store(1, tx.Load(1)+1); return nil })
			}()
			for sh.head.Load() == nil {
				time.Sleep(time.Millisecond)
			}

			wH := rt.Worker(2, rng.New(5))
			defer wH.Release()
			wH.tx.reset(nanos())
			wH.tx.irrevocable.Store(c.irrevocable)
			rt.meta[3].lock.Store(lockedBy(unlockedAt(1), wH.tx.id))

			wA := rt.Worker(0, rng.New(6))
			defer wA.Release()
			a := wA.tx
			a.reset(nanos())
			a.writeIdx = append(a.writeIdx, 0, 3)
			a.writeVals[0], a.writeVals[3] = 20, 23
			killed := make(chan struct{})
			if c.irrevocable {
				close(killed)
			} else {
				go func() {
					defer close(killed)
					for !isLocked(rt.meta[1].lock.Load()) {
						time.Sleep(100 * time.Microsecond)
					}
					st := a.state.Load()
					a.state.CompareAndSwap(st, st&^stateStatusMask|statusKilled)
				}()
			}
			var got any
			func() {
				defer func() { got = recover() }()
				a.combine(sh)
			}()
			<-killed
			if ab, ok := got.(txAbort); !ok || ab.reason != c.want {
				t.Fatalf("combiner ended with %v, want txAbort{%v}", got, c.want)
			}
			if busy := sh.busy.Load(); busy != 0 {
				t.Fatal("aborted combiner kept the lane")
			}
			if l, v, clk := rt.meta[0].lock.Load(), rt.meta[0].val.Load(), rt.clock.Load(); l != unlockedAt(1) || v != 10 || clk != 1 {
				t.Fatalf("word 0: lock %#x, value %d, commit clock %d; want version 1, value 10, clock 1", l, v, clk)
			}
			if err := <-memberDone; err != nil {
				t.Fatal(err)
			}
			// Released at version 1 with its clock untouched, word 1 takes
			// the member's retry at version 2; one stray clock advance and
			// it would be 3.
			if l, v := rt.meta[1].lock.Load(), rt.meta[1].val.Load(); l != unlockedAt(2) || v != 12 {
				t.Fatalf("word 1: lock %#x, value %d; want version 2, value 12", l, v)
			}
			if n := rt.Metrics().Snapshot().Aborts[metrics.AbortBatchAdmission]; n != 1 {
				t.Fatalf("member retried %d times on a batch-admission abort, want 1", n)
			}
			rt.meta[3].lock.Store(unlockedAt(1))
			if err := rt.Atomic(rng.New(7), func(tx *Tx) error { tx.Store(3, tx.Load(3)+1); return nil }); err != nil || rt.ReadCommitted(3) != 14 {
				t.Fatalf("word 3 after the holder let go: %d (%v), want 14", rt.ReadCommitted(3), err)
			}
		})
	}
}
