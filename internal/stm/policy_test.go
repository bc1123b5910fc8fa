package stm

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/rng"
	"txconflict/internal/strategy"
)

func TestPolicyStringAndNormalize(t *testing.T) {
	p := Policy{Rule: core.Rule{Policy: core.RequestorWins, Strategy: strategy.UniformRW{}}, CommitBatch: 4}
	if got := p.String(); got != "requestor-wins/RRW/b4" {
		t.Fatalf("String() = %q", got)
	}
	p = Policy{Rule: core.Rule{Policy: core.RequestorAborts, Hybrid: true}}
	if got := p.String(); got != "Hybrid/NO_DELAY" {
		t.Fatalf("String() = %q", got)
	}
	n := Policy{Rule: core.Rule{BackoffFactor: -1}, CommitBatch: -2, MaxRetries: -4}
	n.normalize()
	if n.BackoffFactor != 1 || n.CommitBatch != 0 || n.MaxRetries != 0 {
		t.Fatalf("normalize left %+v", n)
	}
}

// TestResolutionForHybrid: the resolution a conflict applies comes
// from the rule Policy embeds — the Section 9 switch under Hybrid, the
// configured resolution otherwise.
func TestResolutionForHybrid(t *testing.T) {
	resolution := func(p Policy, k int) core.Policy {
		return p.Decide(k, core.Side{B: 1}, core.Side{B: 1}, nil, rng.New(1)).Policy
	}
	p := Policy{Rule: core.Rule{Policy: core.RequestorWins, Hybrid: true}}
	if resolution(p, 2) != core.RequestorAborts {
		t.Fatal("hybrid k=2 is not requestor-aborts")
	}
	if resolution(p, 3) != core.RequestorWins {
		t.Fatal("hybrid k=3 is not requestor-wins")
	}
	p.Hybrid = false
	if resolution(p, 2) != core.RequestorWins {
		t.Fatal("non-hybrid ignored Resolution")
	}
}

func TestSetPolicySemantics(t *testing.T) {
	rt := New(8, DefaultConfig())
	if rt.PolicySwaps() != 0 {
		t.Fatal("fresh runtime reports swaps")
	}

	// Swap in a different policy; the runtime must serve it back and
	// count the swap.
	p := rt.Policy()
	p.Policy = core.RequestorAborts
	p.Strategy = strategy.ExpRA{}
	p.MaxRetries = 7
	rt.SetPolicy(p)
	if got := rt.Policy(); got.Policy != core.RequestorAborts || got.MaxRetries != 7 {
		t.Fatalf("Policy() = %+v after swap", got)
	}
	if rt.PolicySwaps() != 1 {
		t.Fatalf("swaps = %d, want 1", rt.PolicySwaps())
	}
	// Config() folds the live policy in, so report labels stay
	// truthful after a swap.
	if c := rt.Config(); c.Rule.Policy != core.RequestorAborts || c.MaxRetries != 7 {
		t.Fatalf("Config() = %+v did not track the swap", c)
	}

	// Eager runtimes silently drop CommitBatch — the combiner is a
	// lazy-commit structure.
	p.CommitBatch = 8
	rt.SetPolicy(p)
	if got := rt.Policy().CommitBatch; got != 0 {
		t.Fatalf("eager runtime kept CommitBatch=%d", got)
	}

	// Nonsense values are clamped like New clamps them.
	rt.SetPolicy(Policy{Rule: core.Rule{BackoffFactor: -2}, MaxRetries: -1})
	if got := rt.Policy(); got.BackoffFactor != 1 || got.MaxRetries != 0 {
		t.Fatalf("SetPolicy skipped normalization: %+v", got)
	}
}

// TestLazyRuntimeOpensLaneLater pins the structural guarantee behind
// the control plane: every lazy runtime allocates its combiner lanes
// up front, so a SetPolicy can open group commit on a runtime built
// with CommitBatch=0.
func TestLazyRuntimeOpensLaneLater(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lazy = true
	rt := New(64, cfg)
	if rt.batch == nil {
		t.Fatal("lazy runtime built without combiner lanes")
	}
	p := rt.Policy()
	p.CommitBatch = 4
	rt.SetPolicy(p)
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		_ = rt.AtomicWorker(0, r, func(tx *Tx) error { tx.Store(i%64, uint64(i)); return nil })
	}
	if commits := rt.Stats.Snapshot()["commits"]; commits < 200 {
		t.Fatalf("commits = %d", commits)
	}
	// And close it again; commits must keep flowing on the direct path.
	p.CommitBatch = 0
	rt.SetPolicy(p)
	for i := 0; i < 200; i++ {
		_ = rt.AtomicWorker(0, r, func(tx *Tx) error { tx.Store(i%64, uint64(i)); return nil })
	}
	if commits := rt.Stats.Snapshot()["commits"]; commits < 400 {
		t.Fatalf("commits = %d after closing the lane", commits)
	}
}

// churnPolicies is the cycle of policies the churn tests rotate
// through: resolution flips, strategy changes, hybrid, lane
// open/close — every dynamic knob the control plane can touch.
func churnPolicies() []Policy {
	return []Policy{
		{Rule: core.Rule{Policy: core.RequestorWins, Strategy: strategy.UniformRW{}, BackoffFactor: 1}, MaxRetries: 64},
		{Rule: core.Rule{Policy: core.RequestorAborts, Strategy: strategy.ExpRA{}, BackoffFactor: 2}, MaxRetries: 64},
		{Rule: core.Rule{Policy: core.RequestorWins, Hybrid: true, Strategy: strategy.Hybrid{}, BackoffFactor: 1}, CommitBatch: 4, MaxRetries: 64},
		{Rule: core.Rule{Policy: core.RequestorWins, BackoffFactor: 1}, CommitBatch: 2, MaxRetries: 64},
		{Rule: core.Rule{Policy: core.RequestorAborts, Strategy: strategy.ExpRA{}, BackoffFactor: 1}, CommitBatch: 8},
	}
}

// foldChurnPolicies rotates the knobs that matter to the commutative
// folding path: the fold gate itself, the lane open/closed, and a
// kill-heavy requestor-aborts phase, so delta-writes recorded under
// one policy regularly commit (or die) under another.
func foldChurnPolicies() []Policy {
	return []Policy{
		{Rule: core.Rule{Policy: core.RequestorWins, BackoffFactor: 1}, CommitBatch: 4, FoldCommutative: true, MaxRetries: 64},
		{Rule: core.Rule{Policy: core.RequestorAborts, Strategy: strategy.ExpRA{}, BackoffFactor: 1}, CommitBatch: 4, MaxRetries: 64},
		{Rule: core.Rule{Policy: core.RequestorAborts, Strategy: strategy.ExpRA{}, BackoffFactor: 1}, CommitBatch: 8, FoldCommutative: true, MaxRetries: 64},
		{Rule: core.Rule{Policy: core.RequestorWins, Strategy: strategy.UniformRW{}, BackoffFactor: 1}, MaxRetries: 64},
		{Rule: core.Rule{Policy: core.RequestorWins, BackoffFactor: 1}, CommitBatch: 2, FoldCommutative: true, MaxRetries: 64},
	}
}

// TestFoldPolicyChurn is the kill-heavy stress proof for commutative
// folding: workers hammer the SAME hot words with a mix of tx.Add
// delta-writes and plain load/store increments while a churner flips
// FoldCommutative (and the lane, and the kill policy) mid-run. The
// invariant is exact, not statistical: each hot word must equal the
// total committed increments targeting it, whether those increments
// were folded by the combiner, written back in roster order, or
// lowered to plain writes because the latched policy had folding off.
// Run under -race this is also the data-race proof for the fold path.
func TestFoldPolicyChurn(t *testing.T) {
	modes := []struct {
		name string
		cfg  func() Config
	}{
		{"eager", func() Config { return DefaultConfig() }},
		{"lazy", func() Config { c := DefaultConfig(); c.Lazy = true; return c }},
		{"lazy+batched", func() Config {
			c := DefaultConfig()
			c.Lazy = true
			c.CommitBatch = 4
			c.FoldCommutative = true
			return c
		}},
	}
	const workers = 4
	dur := 150 * time.Millisecond
	if testing.Short() {
		dur = 40 * time.Millisecond
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg()
			cfg.CleanupCost = time.Microsecond
			cfg.MaxRetries = 256
			rt := New(2+workers, cfg)
			stop := make(chan struct{})
			var wg sync.WaitGroup

			wg.Add(1)
			go func() {
				defer wg.Done()
				pols := foldChurnPolicies()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					rt.SetPolicy(pols[i%len(pols)])
					time.Sleep(20 * time.Microsecond)
				}
			}()

			// Every committed transaction increments BOTH hot words
			// exactly once — one via Add, one via a plain
			// read-modify-write — with the roles swapped on odd rounds
			// so each word sees both access kinds from every worker
			// (the combiner's mixed delta/plain fallback path).
			counts := make([]uint64, workers)
			root := rng.New(31)
			for w := 0; w < workers; w++ {
				w := w
				r := root.Split()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						addWord, storeWord := 0, 1
						if i%2 == 1 {
							addWord, storeWord = 1, 0
						}
						err := rt.AtomicWorker(w, r, func(tx *Tx) error {
							tx.Add(addWord, 1)
							tx.Store(storeWord, tx.Load(storeWord)+1)
							tx.Add(2+w, 1) // private word, delta-only
							return nil
						})
						if err != nil {
							panic(fmt.Sprintf("worker %d: %v", w, err))
						}
						counts[w]++
					}
				}()
			}
			runUnderChurn(rt, dur)
			close(stop)
			wg.Wait()

			var total uint64
			for w := 0; w < workers; w++ {
				total += counts[w]
				if got := rt.ReadCommitted(2 + w); got != counts[w] {
					t.Errorf("worker %d private word = %d, committed %d transactions", w, got, counts[w])
				}
			}
			for word := 0; word <= 1; word++ {
				if got := rt.ReadCommitted(word); got != total {
					t.Errorf("hot word %d = %d, want %d committed increments", word, got, total)
				}
			}
			if total == 0 {
				t.Fatal("no transactions committed under churn")
			}
			if rt.PolicySwaps() == 0 {
				t.Fatal("churner never swapped")
			}
			t.Logf("%s: %d commits, %d folded, under %d policy swaps",
				mode.name, total, rt.Stats.Snapshot()["foldedCommits"], rt.PolicySwaps())
		})
	}
}

// TestSetPolicyChurn hammers one contended arena with worker
// goroutines while another goroutine swaps the policy as fast as it
// can, across all three commit modes. The committed state must stay
// exact: every worker counts its own committed increments of a shared
// word and a private word, and the arena must agree with those counts
// when the dust settles — a policy swap may change who wins a
// conflict, never what a committed transaction wrote. Run under -race
// this is also the data-race proof for the control plane.
func TestSetPolicyChurn(t *testing.T) {
	modes := []struct {
		name string
		cfg  func() Config
	}{
		{"eager", func() Config { return DefaultConfig() }},
		{"lazy", func() Config { c := DefaultConfig(); c.Lazy = true; return c }},
		{"lazy+batched", func() Config {
			c := DefaultConfig()
			c.Lazy = true
			c.CommitBatch = 4
			return c
		}},
	}
	const workers = 4
	dur := 150 * time.Millisecond
	if testing.Short() {
		dur = 40 * time.Millisecond
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg()
			cfg.CleanupCost = time.Microsecond
			cfg.MaxRetries = 256
			rt := New(1+workers, cfg)
			stop := make(chan struct{})
			var wg sync.WaitGroup

			// The churner: rotate through every dynamic knob,
			// throttled just enough that it cannot starve the workers
			// on a single P.
			wg.Add(1)
			go func() {
				defer wg.Done()
				pols := churnPolicies()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					rt.SetPolicy(pols[i%len(pols)])
					time.Sleep(20 * time.Microsecond)
				}
			}()

			counts := make([]uint64, workers)
			root := rng.New(9)
			for w := 0; w < workers; w++ {
				w := w
				r := root.Split()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						err := rt.AtomicWorker(w, r, func(tx *Tx) error {
							tx.Store(0, tx.Load(0)+1)     // shared hot word
							tx.Store(1+w, tx.Load(1+w)+1) // private word
							return nil
						})
						if err != nil {
							panic(fmt.Sprintf("worker %d: %v", w, err))
						}
						counts[w]++
					}
				}()
			}
			runUnderChurn(rt, dur)
			close(stop)
			wg.Wait()

			var total uint64
			for w := 0; w < workers; w++ {
				total += counts[w]
				if got := rt.ReadCommitted(1 + w); got != counts[w] {
					t.Errorf("worker %d private word = %d, committed %d transactions", w, got, counts[w])
				}
			}
			if got := rt.ReadCommitted(0); got != total {
				t.Errorf("shared word = %d, want %d committed increments", got, total)
			}
			if total == 0 {
				t.Fatal("no transactions committed under churn")
			}
			if rt.PolicySwaps() == 0 {
				t.Fatal("churner never swapped")
			}
			t.Logf("%s: %d commits under %d policy swaps", mode.name, total, rt.PolicySwaps())
		})
	}
}

// runUnderChurn lets a churn cell's traffic run for dur, and then for
// as long as it takes the churner to land its first swap: on one P the
// spinning workers can keep it off the processor for the whole of a
// -short window, and the cell is about traffic *under* swaps.
func runUnderChurn(rt *Runtime, dur time.Duration) {
	time.Sleep(dur)
	for rt.PolicySwaps() == 0 {
		time.Sleep(time.Millisecond)
	}
}
