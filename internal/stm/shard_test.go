package stm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/rng"
)

func TestShardDefaults(t *testing.T) {
	rt := New(8, DefaultConfig())
	if s := rt.Shards(); s < 1 || s&(s-1) != 0 {
		t.Fatalf("default shard count %d is not a positive power of two", s)
	}
	cfg := DefaultConfig()
	cfg.Shards = 5
	if got := New(8, cfg).Shards(); got != 8 {
		t.Fatalf("Shards=5 rounded to %d, want 8", got)
	}
	cfg.Shards = 1
	rtFlat := New(8, cfg)
	if got := rtFlat.Shards(); got != 1 {
		t.Fatalf("flat arena has %d stripes", got)
	}
	for idx := 0; idx < 8; idx++ {
		if s := rtFlat.stripeOf(idx); s != 0 {
			t.Fatalf("flat arena maps word %d to stripe %d", idx, s)
		}
	}
}

// TestStripedClockAdvancesPerStripe checks that commits only touch
// the clocks of the stripes they wrote.
func TestStripedClockAdvancesPerStripe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	rt := New(8, cfg)
	r := rng.New(1)
	// Words 1 and 5 both live in stripe 1 (idx & 3).
	_ = rt.Atomic(r, func(tx *Tx) error {
		tx.Store(1, 10)
		tx.Store(5, 11)
		return nil
	})
	if got := rt.stripes[1].clock.Load(); got != 1 {
		t.Fatalf("written stripe clock = %d, want 1 (one bump per commit)", got)
	}
	for _, s := range []int{0, 2, 3} {
		if got := rt.stripes[s].clock.Load(); got != 0 {
			t.Fatalf("untouched stripe %d clock = %d", s, got)
		}
	}
}

// TestSnapshotExtension pins the invariant behind the carried
// snapshot: a transaction extends exactly when it meets a word someone
// else committed after its descriptor last looked at that stripe — not
// on first contact, and not for its own commits.
func TestSnapshotExtension(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	rt := New(8, cfg)
	mine := rt.Worker(0, rng.New(1))
	defer mine.Release()
	other := rt.Worker(1, rng.New(2))
	defer other.Release()
	store := func(w *Worker, idxs ...int) {
		t.Helper()
		if err := w.Atomic(func(tx *Tx) error {
			for _, idx := range idxs {
				tx.Store(idx, tx.Load(idx)+1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// extensions runs one read-only block over idxs on mine and returns
	// how many times it extended.
	extensions := func(idxs ...int) uint64 {
		t.Helper()
		before := rt.Stats.Snapshot()["extensions"]
		if err := mine.Atomic(func(tx *Tx) error {
			for _, idx := range idxs {
				tx.Load(idx)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return rt.Stats.Snapshot()["extensions"] - before
	}

	store(&mine, 0, 1, 2, 3) // one word in each stripe
	if n := extensions(0, 1, 2, 3); n != 0 {
		t.Errorf("reading back its own commit, the descriptor extended %d times", n)
	}
	store(&other, 4, 5, 6, 7) // the same four stripes, by someone else
	if n := extensions(4, 5, 6, 7); n != 4 {
		t.Errorf("four stripes committed by another descriptor: %d extensions, want one each", n)
	}
	if n := extensions(0, 1, 2, 3, 4, 5, 6, 7); n != 0 {
		t.Errorf("nobody wrote since the last block, yet %d extensions", n)
	}
	store(&other, 1)
	if n := extensions(0, 1, 2, 3, 5); n != 1 {
		t.Errorf("one word committed in between (stripe 1): %d extensions, want exactly 1", n)
	}
	if st := rt.Stats.Snapshot(); st["aborts"] != 0 {
		t.Fatalf("extension path aborted: %v", st)
	}
}

// TestSnapshotCarried: the per-stripe snapshot survives reset and ends
// a commit — eager or lazy — and an eager rollback at the stamp the
// descriptor itself drew.
func TestSnapshotCarried(t *testing.T) {
	fail := errors.New("roll back")
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Shards, cfg.Lazy = 4, lazy
			rt := New(8, cfg)
			w := rt.Worker(0, rng.New(1))
			defer w.Release()
			check := func(what string, want ...uint64) {
				t.Helper()
				for s, v := range want {
					if w.tx.rv[s] != v || w.tx.wvs[s] != 0 {
						t.Fatalf("%s: rv = %v, wvs = %v; want rv = %v and no stamp left", what, w.tx.rv, w.tx.wvs, want)
					}
				}
			}
			_ = w.Atomic(func(tx *Tx) error { tx.Store(2, 1); tx.Store(6, 1); return nil })
			check("after a commit to stripe 2", 0, 0, 1, 0)
			w.tx.reset(nanos())
			check("after reset", 0, 0, 1, 0)
			_ = w.Atomic(func(tx *Tx) error { tx.Store(2, 2); tx.Store(3, 2); return nil })
			check("after a commit to stripes 2 and 3", 0, 0, 2, 1)
			if err := w.Atomic(func(tx *Tx) error { tx.Store(3, 9); return fail }); err != fail {
				t.Fatal(err)
			}
			if lazy { // nothing was locked, nothing stamped
				check("after a lazy user abort", 0, 0, 2, 1)
			} else {
				check("after an eager rollback of stripe 3", 0, 0, 2, 2)
			}
		})
	}
}

// TestCarriedSnapshotOpacity: a reader that keeps one descriptor — and
// so one carried snapshot — across all its blocks never sees a torn
// pair, doomed attempts included, whether the pair shares a stripe or
// not. The yield between a block's first two loads invites the writer
// in; the retry runs straight through, or on one P the writer would
// commit inside every attempt and the reader never finish a block.
func TestCarriedSnapshotOpacity(t *testing.T) {
	for _, pair := range [][2]int{{0, 1}, {0, 4}} {
		t.Run(fmt.Sprintf("words=%v", pair), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Shards = 4
			rt := New(8, cfg)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := rt.Worker(0, rng.New(1))
				defer w.Release()
				for i := uint64(1); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = w.Atomic(func(tx *Tx) error {
						tx.Store(pair[0], i)
						tx.Store(pair[1], i)
						return nil
					})
					runtime.Gosched()
				}
			}()
			r := rt.Worker(1, rng.New(2))
			defer r.Release()
			for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); {
				_ = r.Atomic(func(tx *Tx) error {
					a := tx.Load(pair[0])
					if tx.Attempts() == 0 {
						runtime.Gosched()
					}
					if b := tx.Load(pair[1]); a != b {
						t.Errorf("torn pair: %d, %d", a, b)
					}
					return nil
				})
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestShardedObjectSumInvariant drives the TxApp-style object-sum
// invariant (each transaction increments two distinct objects, per
// internal/workload) through the sharded runtime under a kill-heavy
// requestor-wins configuration: NO_DELAY grace means every conflict
// kills the receiver immediately. Serializability requires
// Σ objects = 2 × committed ops exactly. Run under -race this doubles
// as the data-race audit of the sharded arena and epoch-kill
// protocol.
func TestShardedObjectSumInvariant(t *testing.T) {
	const objects = 64
	goroutines, perG := 8, 400
	if testing.Short() {
		goroutines, perG = 4, 150
	}
	for _, variant := range []struct {
		name string
		cfg  Config
	}{
		{"eager-sharded", Config{Policy: Policy{Rule: core.Rule{Policy: core.RequestorWins}, MaxRetries: 128}}},
		{"lazy-sharded", Config{Policy: Policy{Rule: core.Rule{Policy: core.RequestorWins}, MaxRetries: 128}, Lazy: true}},
		{"eager-flat", Config{Policy: Policy{Rule: core.Rule{Policy: core.RequestorWins}, MaxRetries: 128}, Shards: 1}},
	} {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			t.Parallel()
			rt := New(objects, variant.cfg) // Strategy nil: kill-heavy NO_DELAY
			root := rng.New(42)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				r := root.Split()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						_ = rt.Atomic(r, func(tx *Tx) error {
							a, b := r.TwoDistinct(objects)
							tx.Store(a, tx.Load(a)+1)
							tx.Store(b, tx.Load(b)+1)
							return nil
						})
					}
				}()
			}
			wg.Wait()
			var sum uint64
			for i := 0; i < objects; i++ {
				sum += rt.ReadCommitted(i)
			}
			want := uint64(2 * goroutines * perG)
			if sum != want {
				t.Fatalf("object sum = %d, want %d (stats %v)", sum, want, rt.Stats.Snapshot())
			}
			if got := rt.Stats.Snapshot()["commits"]; got != uint64(goroutines*perG) {
				t.Fatalf("commits = %d, want %d", got, goroutines*perG)
			}
		})
	}
}

// benchDisjointWriters is the shared disjoint-writer load: each
// parallel worker increments its own 16-word slice of the arena, so
// and commits under its own worker id (own metrics shard, own free
// list), so the only shared traffic is commit-clock lines — the
// contention the striped clocks exist to remove.
func benchDisjointWriters(b *testing.B, shards int) {
	const words = 1024
	cfg := DefaultConfig()
	cfg.Strategy = nil
	cfg.Shards = shards
	rt := New(words, cfg)
	var gid int32
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		g := gid
		gid++
		mu.Unlock()
		r := rng.New(uint64(g) + 1)
		base := (int(g) * 16) % words
		i := 0
		for pb.Next() {
			idx := base + (i & 15)
			i++
			_ = rt.AtomicWorker(int(g), r, func(tx *Tx) error {
				tx.Store(idx, tx.Load(idx)+1)
				return nil
			})
		}
	})
	b.ReportMetric(float64(rt.Stats.Snapshot()["aborts"]), "aborts")
}

// BenchmarkClockSharding measures commit throughput of disjoint
// writers on the flat single-clock arena vs the striped one.
func BenchmarkClockSharding(b *testing.B) {
	b.Run("flat", func(b *testing.B) { benchDisjointWriters(b, 1) })
	b.Run("sharded", func(b *testing.B) { benchDisjointWriters(b, 0) })
}

// BenchmarkShardCounts sweeps explicit shard counts on the disjoint
// writer load, for `go test -bench ShardCounts -cpu 8`.
func BenchmarkShardCounts(b *testing.B) {
	for _, shards := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchDisjointWriters(b, shards)
		})
	}
}
