package stm

import (
	"fmt"
	"sync"
	"testing"

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

// TestSnapshotExtension: a reader whose lazily taken stripe snapshot
// trails committed history must extend (not abort) when the read set
// is still valid.
func TestSnapshotExtension(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	rt := New(8, cfg)
	r := rng.New(1)
	for i := 0; i < 4; i++ {
		i := i
		_ = rt.Atomic(r, func(tx *Tx) error {
			tx.Store(i, uint64(100+i))
			return nil
		})
	}
	before := rt.Stats.Snapshot()["extensions"]
	err := rt.Atomic(r, func(tx *Tx) error {
		for i := 0; i < 4; i++ {
			if got := tx.Load(i); got != uint64(100+i) {
				t.Fatalf("word %d = %d", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats.Snapshot()
	if st["extensions"] == before {
		t.Fatal("multi-stripe read-only transaction never extended its snapshot")
	}
	if st["aborts"] != 0 {
		t.Fatalf("extension path aborted: %v", st)
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
		{"eager-sharded", Config{Policy: core.RequestorWins, MaxRetries: 128}},
		{"lazy-sharded", Config{Policy: core.RequestorWins, Lazy: true, MaxRetries: 128}},
		{"eager-flat", Config{Policy: core.RequestorWins, Shards: 1, MaxRetries: 128}},
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
// the only shared traffic is commit-clock and metadata lines — the
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
			_ = rt.Atomic(r, func(tx *Tx) error {
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
