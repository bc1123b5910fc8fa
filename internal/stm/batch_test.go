package stm

import (
	"sync"
	"testing"
	"time"

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
