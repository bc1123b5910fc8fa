package stm

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/metrics"
	"txconflict/internal/rng"
	"txconflict/internal/strategy"
)

// namedConfig is one entry of the concurrency tests' matrix.
type namedConfig struct {
	name string
	cfg  Config
}

// configs returns the configuration matrix exercised by the
// concurrency tests: both policies, both locking modes, with and
// without delay strategies — plus a "flat" RRW pair in both locking
// modes whose runtime counts into a one-shard metrics plane, so every
// worker's ledger folds land on one line beside the one commit clock.
func configs() []namedConfig {
	var out []namedConfig
	for _, lazy := range []bool{false, true} {
		for _, pol := range []core.Policy{core.RequestorWins, core.RequestorAborts} {
			for _, s := range []core.Strategy{nil, strategy.UniformRW{}, strategy.ExpRA{}} {
				cfg := Config{
					Policy: Policy{
						Rule:        core.Rule{Policy: pol, Strategy: s, BackoffFactor: 1},
						CleanupCost: time.Microsecond,
						MaxRetries:  128,
					},
					Lazy: lazy,
				}
				out = append(out, namedConfig{cfg.String(), cfg})
			}
		}
	}
	for _, lazy := range []bool{false, true} {
		cfg := Config{
			Policy: Policy{
				Rule:        core.Rule{Policy: core.RequestorWins, Strategy: strategy.UniformRW{}, BackoffFactor: 1},
				CleanupCost: time.Microsecond,
				MaxRetries:  128,
			},
			Lazy:    lazy,
			Metrics: metrics.NewPlane(1, 0),
		}
		out = append(out, namedConfig{cfg.String() + "/flat", cfg})
	}
	return out
}

func TestSequentialLoadStore(t *testing.T) {
	rt := New(16, DefaultConfig())
	r := rng.New(1)
	err := rt.Atomic(r, func(tx *Tx) error {
		tx.Store(3, 42)
		if got := tx.Load(3); got != 42 {
			t.Errorf("read-own-write = %d", got)
		}
		if got := tx.Load(4); got != 0 {
			t.Errorf("fresh word = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.ReadCommitted(3); got != 42 {
		t.Fatalf("committed value = %d", got)
	}
	if commits := rt.Stats.Snapshot()["commits"]; commits != 1 {
		t.Fatalf("commits = %d", commits)
	}
}

func TestUserErrorAbortsWithoutRetry(t *testing.T) {
	rt := New(4, DefaultConfig())
	r := rng.New(1)
	boom := errors.New("boom")
	calls := 0
	err := rt.Atomic(r, func(tx *Tx) error {
		calls++
		tx.Store(0, 99)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times", calls)
	}
	if got := rt.ReadCommitted(0); got != 0 {
		t.Fatalf("aborted write leaked: %d", got)
	}
	if rt.Stats.Snapshot()["commits"] != 0 {
		t.Fatal("user abort counted as commit")
	}
}

func TestLazyBuffering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lazy = true
	rt := New(4, cfg)
	r := rng.New(1)
	_ = rt.Atomic(r, func(tx *Tx) error {
		tx.Store(0, 7)
		// In lazy mode the word must not be globally visible yet.
		if rt.meta[0].val.Load() != 0 {
			t.Error("lazy write hit memory before commit")
		}
		if tx.Load(0) != 7 {
			t.Error("read-own-write through buffer failed")
		}
		return nil
	})
	if rt.ReadCommitted(0) != 7 {
		t.Fatal("lazy commit lost the write")
	}
}

func TestEagerInPlaceAndRollback(t *testing.T) {
	cfg := DefaultConfig()
	rt := New(4, cfg)
	r := rng.New(1)
	fail := errors.New("fail")
	_ = rt.Atomic(r, func(tx *Tx) error {
		tx.Store(0, 7)
		// Eager mode writes in place while holding the lock.
		if rt.meta[0].val.Load() != 7 {
			t.Error("eager write not in place")
		}
		if l := rt.meta[0].lock.Load(); !isLocked(l) || lockOwner(l) != tx.id {
			t.Error("eager write did not lock the word")
		}
		return fail
	})
	if rt.ReadCommitted(0) != 0 {
		t.Fatal("rollback did not restore the pre-image")
	}
	if isLocked(rt.meta[0].lock.Load()) {
		t.Fatal("rollback left the word locked")
	}
}

// TestCounterConcurrent is the core serializability test: G
// goroutines each add 1 to a shared counter N times; the final value
// must be exactly G*N for every configuration.
func TestCounterConcurrent(t *testing.T) {
	const goroutines, perG = 8, 2000
	for _, nc := range configs() {
		cfg := nc.cfg
		t.Run(nc.name, func(t *testing.T) {
			t.Parallel()
			rt := New(8, cfg)
			root := rng.New(99)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				r := root.Split()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						_ = rt.Atomic(r, func(tx *Tx) error {
							tx.Store(0, tx.Load(0)+1)
							return nil
						})
					}
				}()
			}
			wg.Wait()
			if got := rt.ReadCommitted(0); got != goroutines*perG {
				t.Fatalf("counter = %d, want %d (stats %v)", got, goroutines*perG, rt.Stats.Snapshot())
			}
			if commits := rt.Stats.Snapshot()["commits"]; commits != goroutines*perG {
				t.Fatalf("commits = %d", commits)
			}
		})
	}
}

// TestTransfersConserveBalance runs random transfers among accounts;
// serializability implies the total is conserved and every snapshot a
// transaction observes is consistent.
func TestTransfersConserveBalance(t *testing.T) {
	const accounts, goroutines, perG = 16, 8, 1500
	const initial = 1000
	for _, nc := range configs() {
		cfg := nc.cfg
		t.Run(nc.name, func(t *testing.T) {
			t.Parallel()
			rt := New(accounts, cfg)
			seed := rng.New(7)
			for i := 0; i < accounts; i++ {
				i := i
				_ = rt.Atomic(seed, func(tx *Tx) error {
					tx.Store(i, initial)
					return nil
				})
			}
			root := rng.New(1234)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				r := root.Split()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						_ = rt.Atomic(r, func(tx *Tx) error {
							a, b := r.TwoDistinct(accounts)
							av, bv := tx.Load(a), tx.Load(b)
							tx.Store(a, av-1)
							tx.Store(b, bv+1)
							return nil
						})
					}
				}()
			}
			wg.Wait()
			var total uint64
			for i := 0; i < accounts; i++ {
				total += rt.ReadCommitted(i)
			}
			if total != accounts*initial {
				t.Fatalf("balance drift: %d != %d (stats %v)", total, accounts*initial, rt.Stats.Snapshot())
			}
		})
	}
}

// TestOpacity verifies that no transaction — even one that later
// aborts — observes a torn snapshot of two words that are always
// updated together.
func TestOpacity(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		lazy := lazy
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Lazy = lazy
			rt := New(2, cfg)
			stop := make(chan struct{})
			var torn atomic64Bool
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				r := rng.New(1)
				for i := uint64(1); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = rt.Atomic(r, func(tx *Tx) error {
						tx.Store(0, i)
						tx.Store(1, i)
						return nil
					})
				}
			}()
			go func() {
				defer wg.Done()
				r := rng.New(2)
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = rt.Atomic(r, func(tx *Tx) error {
						a := tx.Load(0)
						b := tx.Load(1)
						if a != b {
							torn.set()
						}
						return nil
					})
				}
			}()
			time.Sleep(300 * time.Millisecond)
			close(stop)
			wg.Wait()
			if torn.get() {
				t.Fatal("a transaction observed a torn snapshot")
			}
		})
	}
}

// atomic64Bool is a tiny helper for cross-goroutine flags in tests.
type atomic64Bool struct {
	mu sync.Mutex
	v  bool
}

func (b *atomic64Bool) set()      { b.mu.Lock(); b.v = true; b.mu.Unlock() }
func (b *atomic64Bool) get() bool { b.mu.Lock(); defer b.mu.Unlock(); return b.v }

func TestIrrevocableFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetries = 1 // fall back almost immediately
	rt := New(4, cfg)
	const goroutines, perG = 8, 300
	root := rng.New(5)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		r := root.Split()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_ = rt.Atomic(r, func(tx *Tx) error {
					tx.Store(0, tx.Load(0)+1)
					busySpin(300) // hold the lock to force overlap
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := rt.ReadCommitted(0); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	// On an oversubscribed machine goroutines can serialize and never
	// abort, in which case the fallback is legitimately idle.
	if st := rt.Stats.Snapshot(); st["aborts"] > uint64(goroutines) && st["irrevocable"] == 0 {
		t.Fatalf("fallback never engaged despite MaxRetries=1 and %d aborts", st["aborts"])
	}
}

// stageConflict forces one real lock conflict on word 0 regardless of
// GOMAXPROCS or core count: the receiver acquires the encounter lock
// and parks on a channel; the requestor then touches the same word and
// must go through the full onLocked path (grace wait + resolution).
// The receiver is released only after the requestor's resolution has
// been observed in the counters, so the conflict cannot be skipped by
// goroutine serialization on a loaded or single-core box.
func stageConflict(t *testing.T, pol core.Policy) *Runtime {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Rule.Policy = pol
	cfg.MaxRetries = 0 // never escalate to irrevocable (which kills)
	rt := New(2, cfg)
	root := rng.New(3)
	recvRng := root.Split()
	reqRng := root.Split()

	held := make(chan struct{}, 4)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // receiver: holds the lock until released
		defer wg.Done()
		_ = rt.Atomic(recvRng, func(tx *Tx) error {
			tx.Store(0, tx.Load(0)+1)
			select {
			case held <- struct{}{}:
			default: // retries after a kill must not block
			}
			<-release
			return nil
		})
	}()
	<-held

	wg.Add(1)
	go func() { // requestor: conflicts on word 0
		defer wg.Done()
		_ = rt.Atomic(reqRng, func(tx *Tx) error {
			tx.Store(0, tx.Load(0)+1)
			return nil
		})
	}()

	// Wait until the requestor has resolved the conflict, then let the
	// receiver go. Kills (RW) and self aborts (RA) land before the
	// lock is released, so this cannot hang.
	resolved := func() bool {
		if pol == core.RequestorWins {
			return rt.Stats.Snapshot()["kills"] > 0
		}
		return rt.Stats.Snapshot()["selfAborts"] > 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for !resolved() {
		if time.Now().After(deadline) {
			t.Fatalf("%v: staged conflict never resolved (stats %v)", pol, rt.Stats.Snapshot())
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	return rt
}

func TestPolicyKillAccounting(t *testing.T) {
	// Requestor-wins must resolve a conflict by killing the receiver;
	// requestor aborts must never kill (only self aborts).
	rw := stageConflict(t, core.RequestorWins)
	st := rw.Stats.Snapshot()
	if st["kills"] == 0 {
		t.Error("requestor-wins conflict produced no kills")
	}
	if st["graceWaits"] == 0 {
		t.Error("requestor-wins conflict skipped the grace wait")
	}
	ra := stageConflict(t, core.RequestorAborts)
	st = ra.Stats.Snapshot()
	if st["kills"] != 0 {
		t.Errorf("requestor-aborts produced %d kills", st["kills"])
	}
	if st["selfAborts"] == 0 {
		t.Error("requestor-aborts conflict produced no self aborts")
	}
	// Both runtimes must still settle to consistent committed state.
	for _, rt := range []*Runtime{rw, ra} {
		if got := rt.ReadCommitted(0); got != 2 {
			t.Errorf("counter = %d, want 2 (one commit per side)", got)
		}
	}
}

// busySpin burns roughly n loop iterations of CPU (no sleeping, so
// the transaction stays on-CPU like a real computation).
func busySpin(n int) {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 42 { // defeat dead-code elimination
		panic("unreachable")
	}
}

// TestKEstimateDisabledByDefault: the chain-length gauge needs no knob
// — it is the plane's mean k over grace waits, so a fresh runtime under
// DefaultConfig reads 0 and its label carries no estimator segment.
func TestKEstimateDisabledByDefault(t *testing.T) {
	rt := New(8, DefaultConfig())
	if k := rt.KEstimate(); k != 0 {
		t.Fatalf("fresh runtime: KEstimate = %v, want 0", k)
	}
	if strings.Contains(rt.Config().String(), "kw") {
		t.Fatalf("config string %q must not mention kw", rt.Config().String())
	}
}

// TestKWindowObservesConflicts drives a contended counter: the
// invariant must hold and, once grace waits occurred, the estimate must
// be a plausible chain length (>= 2: a receiver and one requestor). A
// staged conflict makes the grace wait certain.
func TestKWindowObservesConflicts(t *testing.T) {
	cfg := Config{Policy: Policy{
		Rule:        core.Rule{Policy: core.RequestorWins, Strategy: strategy.UniformRW{}},
		CleanupCost: time.Microsecond,
		MaxRetries:  256,
	}}
	rt := New(1, cfg)
	const workers = 4
	const opsPer = 300
	var wg sync.WaitGroup
	root := rng.New(3)
	for w := 0; w < workers; w++ {
		r := root.Split()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				_ = rt.Atomic(r, func(tx *Tx) error {
					tx.Store(0, tx.Load(0)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := rt.ReadCommitted(0); got != workers*opsPer {
		t.Fatalf("counter = %d, want %d", got, workers*opsPer)
	}
	if rt.Stats.Snapshot()["graceWaits"] > 0 {
		if k := rt.KEstimate(); k < 2 {
			t.Fatalf("KEstimate = %v after conflicts, want >= 2", k)
		}
	}
	staged := stageConflict(t, core.RequestorWins)
	if staged.Stats.Snapshot()["graceWaits"] == 0 {
		t.Fatal("staged conflict recorded no grace wait")
	}
	if k := staged.KEstimate(); k < 2 {
		t.Fatalf("KEstimate = %v after a grace wait, want >= 2", k)
	}
}

func TestProfilerMean(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseMeanProfile = true
	cfg.Strategy = strategy.MeanRW{}
	rt := New(2, cfg)
	r := rng.New(1)
	for i := 0; i < 50; i++ {
		_ = rt.Atomic(r, func(tx *Tx) error {
			tx.Store(0, tx.Load(0)+1)
			return nil
		})
	}
	if rt.metrics.ProfileMean() <= 0 {
		t.Fatal("profiler mean not populated")
	}
}

func TestReadCommittedStability(t *testing.T) {
	rt := New(1, DefaultConfig())
	r := rng.New(1)
	_ = rt.Atomic(r, func(tx *Tx) error { tx.Store(0, 5); return nil })
	for i := 0; i < 100; i++ {
		if rt.ReadCommitted(0) != 5 {
			t.Fatal("ReadCommitted unstable")
		}
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, DefaultConfig())
}

func TestConfigString(t *testing.T) {
	c := DefaultConfig()
	if c.String() != "requestor-wins/RRW/eager" {
		t.Fatalf("String = %q", c.String())
	}
	c.Strategy = nil
	c.Lazy = true
	c.Rule.Policy = core.RequestorAborts
	if c.String() != "requestor-aborts/NO_DELAY/lazy" {
		t.Fatalf("String = %q", c.String())
	}
	// The Section 9 rule overrides the resolution per conflict, so the label
	// names it instead.
	c = DefaultConfig()
	c.Hybrid = true
	c.Strategy = strategy.Hybrid{}
	if c.String() != "Hybrid/HYBRID/eager" {
		t.Fatalf("String = %q", c.String())
	}
}

func BenchmarkUncontendedTx(b *testing.B) {
	rt := New(64, DefaultConfig())
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(r, func(tx *Tx) error {
			tx.Store(i%64, uint64(i))
			return nil
		})
	}
}

func BenchmarkContendedCounter(b *testing.B) {
	rt := New(1, DefaultConfig())
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(uint64(time.Now().UnixNano()))
		for pb.Next() {
			_ = rt.Atomic(r, func(tx *Tx) error {
				tx.Store(0, tx.Load(0)+1)
				return nil
			})
		}
	})
}
