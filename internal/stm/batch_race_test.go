// Kill-heavy stress for the group-commit combiner, meant to run under
// the race detector (make race-short): workers hammer a small hot set
// through batched lazy commits with immediate-kill conflict
// resolution and an aggressive irrevocable fallback, so requestors
// keep killing transactions that sit queued (or admitted) in another
// combiner's batch.
//
// The correctness claims under fire:
//
//   - no transaction commits after observing killed(): admission is an
//     active→noReturn CAS against the queued descriptor's state, so a
//     kill that lands while the descriptor waits can never be written
//     back — any violation double-applies a write set and breaks the
//     object-sum ledger below;
//   - no descriptor is stamped twice: stampOutcome panics on any
//     transition that is not a first stamp racing only with a one-shot
//     kill CAS, which fails the test via the panic;
//   - the queue never leaks a descriptor: the run drains (wg.Wait
//     returns) only if every queued commit was eventually stamped.
package stm

import (
	"sync"
	"testing"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/rng"
)

func TestBatchKillStress(t *testing.T) {
	cfg := Config{
		Policy: Policy{
			Rule:        core.Rule{Policy: core.RequestorWins}, // no Strategy, NO_DELAY: every conflict kills immediately
			CommitBatch: 4,
			CleanupCost: time.Microsecond,
			MaxRetries:  3, // frequent irrevocable fallbacks kill queued members too
		},
		Lazy: true,
	}
	const (
		workers = 8
		hot     = 6
	)
	rt := New(hot+workers, cfg)
	// Two combiner lanes: combiners with overlapping hot write sets
	// fight each other, so kills land on descriptors attributed to a
	// batch in flight (the single lane a 1-CPU box derives would make
	// combiner-vs-combiner conflicts impossible).
	rt.setBatchShards(2)

	root := rng.New(31)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w, r := w, root.Split()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := r.Intn(hot)
				j := (i + 1 + r.Intn(hot-1)) % hot
				_ = rt.Atomic(r, func(tx *Tx) error {
					tx.Store(i, tx.Load(i)+1)
					tx.Store(j, tx.Load(j)+1)
					tx.Store(hot+w, tx.Load(hot+w)+1)
					return nil
				})
			}
		}()
	}

	// Run until the schedule has demonstrably produced batches and
	// kills (bounded so a starved -race schedule cannot hang CI).
	target := uint64(200)
	if testing.Short() {
		target = 50
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if st := rt.Stats.Snapshot(); st["kills"] >= target/10 && st["batches"] >= target {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	var hotSum, tallySum uint64
	for i := 0; i < hot; i++ {
		hotSum += rt.ReadCommitted(i)
	}
	for w := 0; w < workers; w++ {
		tallySum += rt.ReadCommitted(hot + w)
	}
	commits := rt.Stats.Snapshot()["commits"]
	if hotSum != 2*commits || tallySum != commits {
		t.Fatalf("ledger broken: hot sum %d (want %d), tally sum %d (want %d); stats %v",
			hotSum, 2*commits, tallySum, commits, rt.Stats.Snapshot())
	}
	snap := rt.Stats.Snapshot()
	if snap["batches"] == 0 || snap["batchCommits"] == 0 {
		t.Fatalf("stress never combined: %v", snap)
	}
	if snap["kills"] == 0 {
		t.Fatalf("stress never killed a transaction: %v", snap)
	}
	t.Logf("stress stats: %v", snap)
}
