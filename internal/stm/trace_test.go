package stm

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
)

// collectTracer copies every TxTrace it receives (the pointer is only
// valid during the call).
type collectTracer struct {
	mu   sync.Mutex
	recs []TxTrace
}

func (c *collectTracer) TraceTx(t *TxTrace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := *t
	cp.Reads = append([]uint32(nil), t.Reads...)
	cp.Writes = append([]uint32(nil), t.Writes...)
	c.recs = append(c.recs, cp)
}

func (c *collectTracer) snapshot() []TxTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]TxTrace(nil), c.recs...)
}

// countTracer only counts calls — the no-op sink for overhead tests.
type countTracer struct{ n int }

func (c *countTracer) TraceTx(*TxTrace) { c.n++ }

// TestTraceUncontendedRecords checks the per-block record contents on
// an uncontended runtime: worker attribution, outcome, retry count,
// and the deduplicated read/write footprints, in both locking modes.
func TestTraceUncontendedRecords(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		name := "eager"
		if lazy {
			name = "lazy"
		}
		t.Run(name, func(t *testing.T) {
			tr := &collectTracer{}
			cfg := DefaultConfig()
			cfg.Lazy = lazy
			cfg.Trace = tr
			rt := New(8, cfg)
			r := rng.New(1)
			for i := 0; i < 5; i++ {
				err := rt.AtomicWorker(3, r, func(tx *Tx) error {
					v := tx.Load(0)
					_ = tx.Load(0) // duplicate load must not widen the footprint
					_ = tx.Load(5)
					tx.Store(1, v+1)
					tx.Store(2, 7)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			recs := tr.snapshot()
			if len(recs) != 5 {
				t.Fatalf("got %d records, want 5", len(recs))
			}
			for i, rec := range recs {
				if rec.Worker != 3 || !rec.Committed || rec.Retries != 0 {
					t.Fatalf("record %d = %+v", i, rec)
				}
				if rec.KillsSuffered != 0 || rec.KillsIssued != 0 || rec.GraceWaitNs != 0 {
					t.Fatalf("record %d has conflict stats on an uncontended run: %+v", i, rec)
				}
				if rec.DurNs < 0 || rec.StartUnixNs == 0 {
					t.Fatalf("record %d timing: %+v", i, rec)
				}
				reads := append([]uint32(nil), rec.Reads...)
				writes := append([]uint32(nil), rec.Writes...)
				sort.Slice(reads, func(a, b int) bool { return reads[a] < reads[b] })
				sort.Slice(writes, func(a, b int) bool { return writes[a] < writes[b] })
				if len(writes) != 2 || writes[0] != 1 || writes[1] != 2 {
					t.Fatalf("record %d writes = %v, want [1 2]", i, rec.Writes)
				}
				if len(reads) != 2 || reads[0] != 0 || reads[1] != 5 {
					t.Fatalf("record %d reads = %v, want [0 5]", i, rec.Reads)
				}
			}
		})
	}
}

// TestTraceUserAbort checks that user-level aborts emit a
// non-committed record with the attempted footprint.
func TestTraceUserAbort(t *testing.T) {
	tr := &collectTracer{}
	cfg := DefaultConfig()
	cfg.Trace = tr
	rt := New(4, cfg)
	errNope := errors.New("nope")
	err := rt.Atomic(rng.New(1), func(tx *Tx) error {
		tx.Store(2, 1)
		return errNope
	})
	if !errors.Is(err, errNope) {
		t.Fatalf("err = %v", err)
	}
	recs := tr.snapshot()
	if len(recs) != 1 || recs[0].Committed || recs[0].Worker != -1 {
		t.Fatalf("records = %+v", recs)
	}
	if len(recs[0].Writes) != 1 || recs[0].Writes[0] != 2 {
		t.Fatalf("aborted footprint = %v, want [2]", recs[0].Writes)
	}
	if rt.ReadCommitted(2) != 0 {
		t.Fatal("user abort leaked a write")
	}
}

// TestTraceKillAccounting stages a requestor-wins kill and checks
// both sides of the ledger: the victim's record carries the suffered
// kill and the retry, the killer's carries the issued kill.
func TestTraceKillAccounting(t *testing.T) {
	tr := &collectTracer{}
	cfg := DefaultConfig()
	cfg.Strategy = nil // immediate resolution: the requestor kills at once
	cfg.MaxRetries = 0
	cfg.Trace = tr
	rt := New(1, cfg)
	root := rng.New(3)
	recvR, reqR := root.Split(), root.Split()

	held := make(chan struct{})
	cont := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // receiver (worker 0): holds the word lock until killed
		defer wg.Done()
		once := sync.OnceFunc(func() { close(held) })
		_ = rt.AtomicWorker(0, recvR, func(tx *Tx) error {
			tx.Store(0, 1)
			if tx.Attempts() == 0 {
				once()
				<-cont
			}
			tx.Store(0, 2) // instrumentation point: observes the kill
			return nil
		})
	}()
	<-held

	wg.Add(1)
	go func() { // requestor (worker 1): kills the receiver immediately
		defer wg.Done()
		_ = rt.AtomicWorker(1, reqR, func(tx *Tx) error {
			tx.Store(0, tx.Load(0)+10)
			return nil
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats.Snapshot()["kills"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("kill never landed (stats %v)", rt.Stats.Snapshot())
		}
		runtime.Gosched()
	}
	close(cont)
	wg.Wait()

	var victim, killer *TxTrace
	for i, rec := range tr.snapshot() {
		rec := rec
		switch rec.Worker {
		case 0:
			victim = &tr.recs[i]
		case 1:
			killer = &tr.recs[i]
		}
	}
	if victim == nil || killer == nil {
		t.Fatalf("missing records: %+v", tr.snapshot())
	}
	if victim.KillsSuffered == 0 || victim.Retries == 0 || !victim.Committed {
		t.Fatalf("victim record = %+v", victim)
	}
	if killer.KillsIssued == 0 || !killer.Committed {
		t.Fatalf("killer record = %+v", killer)
	}
}

// TestTraceGateOverhead is the hot-path guard for Config.Trace = nil:
//
//  1. the gate is correct — a tracer fires exactly once per block when
//     installed and never when absent;
//  2. the tracing-off path allocates nothing per transaction (all
//     instrumentation state lives behind the gate), through the
//     one-shot AtomicWorker and through a run of blocks on one Worker
//     handle alike — sixteen, the observation ledger filled exactly
//     and folded into the plane when full, and twenty-one, a full fold
//     mid-handle and a partial one at Release;
//  3. that survives the batched group-commit path
//     (Config.CommitBatch > 0): the combiner reuses its scratch with
//     the descriptor, so a steady-state batched commit with tracing
//     off still allocates nothing;
//  4. it survives a live SetPolicy swap: the control plane's
//     per-attempt policy load is one atomic pointer read;
//  5. and Worker + Atomic + Release allocates exactly nothing, a
//     collection between runs included: descriptors idle on the
//     runtime's free lists, which a GC — unlike a sync.Pool — leaves
//     alone.
//
// Every runtime counts into its metrics plane, so all of the above
// are measured with the histograms on at the default phase-sampling
// rate. What the gate costs in time is BenchmarkAtomicBlock's and the
// ledger's (stm.atomic_empty_ns) to say, not a pass/fail test's.
func TestTraceGateOverhead(t *testing.T) {
	mk := func(traced *countTracer, batch int) *Runtime {
		cfg := DefaultConfig()
		if traced != nil {
			cfg.Trace = traced
		}
		if batch > 0 {
			cfg.Lazy = true
			cfg.CommitBatch = batch
		}
		return New(64, cfg)
	}

	ct := &countTracer{}
	rtOn := mk(ct, 0)
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		_ = rtOn.Atomic(r, func(tx *Tx) error { tx.Store(i%64, 1); return nil })
	}
	if ct.n != 100 {
		t.Fatalf("tracer fired %d times for 100 blocks", ct.n)
	}

	rtOff := mk(nil, 0)
	rtBatch := mk(nil, 4)
	rtSwapped := mk(nil, 0)
	{ // exercise the control plane: replace the policy before measuring
		p := rtSwapped.Policy()
		p.CleanupCost++
		rtSwapped.SetPolicy(p)
	}
	variants := []struct {
		name string
		rt   *Runtime
	}{
		{"eager", rtOff},
		{"lazy-batched", rtBatch},
		{"policy-swapped", rtSwapped},
	}
	// A store, and an add: a read-modify-write that on eager reads
	// through LoadForUpdate.
	bodies := []struct {
		name string
		fn   func(tx *Tx) error
	}{
		{"store", func(tx *Tx) error { tx.Store(1, 2); return nil }},
		{"add", func(tx *Tx) error { tx.Add(1, 1); return nil }},
	}
	type entry struct {
		name string
		run  func()
	}
	for _, v := range variants {
		for _, body := range bodies {
			handleOf := func(blocks int) entry {
				return entry{fmt.Sprintf("%d-block handle", blocks), func() {
					w := v.rt.Worker(0, r)
					for i := 0; i < blocks; i++ {
						_ = w.Atomic(body.fn)
					}
					w.Release()
				}}
			}
			entries := []entry{
				{"one-shot", func() { _ = v.rt.AtomicWorker(0, r, body.fn) }},
				handleOf(16), // fills the ledger exactly: folded when full, Release finds it empty
				handleOf(21), // one full fold mid-handle, the rest at Release
			}
			for _, e := range entries {
				e.run() // the descriptor's first use makes it
				runtime.GC()
				if avg := testing.AllocsPerRun(200, e.run); avg != 0 {
					t.Errorf("%s tracing-off %s %s allocates %v objects/run, want 0", v.name, body.name, e.name, avg)
				}
			}
		}
	}
}

// TestTraceTimingMatchesPlane pins where a traced block's two times
// come from. DurNs is the difference of the very stamps the plane
// observed, so over any run the committed records' DurNs sum to the
// Commit histogram's; StartUnixNs is still wall-clock Unix time (the
// clock base's wall reading plus the monotonic start stamp), checked
// against time.Now at emit. The blocks go through one Worker handle so
// chained starts are covered too.
func TestTraceTimingMatchesPlane(t *testing.T) {
	var durSum, minSkew int64 = 0, 1 << 62
	cfg := DefaultConfig()
	cfg.Trace = tracerFunc(func(tr *TxTrace) {
		durSum += tr.DurNs
		skew := time.Now().UnixNano() - tr.DurNs - tr.StartUnixNs
		minSkew = min(minSkew, max(skew, -skew))
	})
	rt := New(8, cfg)
	w := rt.Worker(0, rng.New(1))
	const n = 64
	for i := 0; i < n; i++ {
		_ = w.Atomic(func(tx *Tx) error { tx.Store(i%8, tx.Load(i%8)+1); return nil })
	}
	w.Release()
	snap := rt.Metrics().Snapshot()
	if snap.Commit.Count != n || snap.Commit.Sum != uint64(durSum) {
		t.Fatalf("Σ DurNs = %d over %d records, Commit histogram holds %d ns over %d commits",
			durSum, n, snap.Commit.Sum, snap.Commit.Count)
	}
	// The best of n records: a preemption between the end stamp and the
	// tracer call skews one record, not all of them.
	if minSkew > int64(time.Millisecond) {
		t.Fatalf("StartUnixNs is %v away from wall-clock time at emit minus DurNs", time.Duration(minSkew))
	}
}

type tracerFunc func(*TxTrace)

func (f tracerFunc) TraceTx(t *TxTrace) { f(t) }

// TestZeroStampIsNotASentinel: the monotonic clock starts near zero,
// so 0 is a legal stamp and "blockStart == 0" cannot mean "no attempt
// yet". Stage a chained block that starts at stamp 0 and aborts once:
// the retry's fresh stamp must open the second attempt only, leaving
// the block's start — and so its commit latency — at the first
// attempt's.
func TestZeroStampIsNotASentinel(t *testing.T) {
	var rec TxTrace
	cfg := DefaultConfig()
	cfg.MaxRetries = 0
	cfg.Trace = tracerFunc(func(tr *TxTrace) { rec = *tr })
	rt := New(2, cfg)
	w := rt.Worker(0, rng.New(1))
	defer w.Release()
	w.tx.blockEnd, w.chained = 0, true
	before := nanos()
	if err := w.Atomic(func(tx *Tx) error {
		if tx.Attempts() == 0 {
			tx.abort(metrics.AbortValidation)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if w.tx.blockStart != 0 || w.tx.start < before {
		t.Fatalf("blockStart = %d (want the chained stamp 0), retry started at %d (want a fresh read ≥ %d)",
			w.tx.blockStart, w.tx.start, before)
	}
	if rec.Retries != 1 || rec.DurNs != w.tx.blockEnd || rec.StartUnixNs != wallNanos(0) {
		t.Fatalf("record %+v, want one retry and a block spanning stamps 0..%d", rec, w.tx.blockEnd)
	}
}

// BenchmarkUncontendedTxTraced is the traced counterpart of
// BenchmarkUncontendedTx: same single-word transactions with a
// recording no-op sink, so `go test -bench 'UncontendedTx'` prints
// the cost of full instrumentation next to the gated baseline.
func BenchmarkUncontendedTxTraced(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Trace = &countTracer{}
	rt := New(64, cfg)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rt.AtomicWorker(0, r, func(tx *Tx) error {
			tx.Store(i%64, uint64(i))
			return nil
		})
	}
}
