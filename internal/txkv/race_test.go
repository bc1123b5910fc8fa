package txkv

import (
	"fmt"
	"testing"

	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

// TestWorkloadInvariants is the txkv cross-mode invariant matrix,
// the keyed-traffic extension of the scenario parity suite: every
// registered workload, under real concurrency, on all three commit
// paths (eager / lazy / lazy+CommitBatch=4) plus the fold lane —
// lazy+batch4 with commutative folding over an escrow-counter store,
// so Add traffic commits as summed deltas. After each run the
// store must pass its structural checks — occupancy vs live-key
// count, index-chain reachability and class consistency, probe
// integrity — plus the workload's semantic check (counter sums,
// document all-or-nothing visibility). Run under -race in CI
// (make race-short).
func TestWorkloadInvariants(t *testing.T) {
	rounds := 100
	if testing.Short() {
		rounds = 40
	}
	cells := modes()
	folded := cells[len(cells)-1] // lazy+batch4
	folded.name += "+fold"
	folded.cfg.FoldCommutative = true
	cells = append(cells, folded)
	for _, wname := range Names() {
		for _, m := range cells {
			t.Run(fmt.Sprintf("%s/%s", wname, m.name), func(t *testing.T) {
				w, err := ByName(wname, Options{})
				if err != nil {
					t.Fatal(err)
				}
				s := w.NewStore(Config{STM: m.cfg, EscrowCounters: m.cfg.FoldCommutative})
				tot, err := drive(w, func(u int, r *rng.Rand) Client {
					return &LocalClient{Store: s, Worker: u, R: r}
				}, 4, 8, rounds, 7)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if err := w.Check(s, tot); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// mixedOps is the number of ops each user of the mixed-op tests issues.
func mixedOps() int {
	if testing.Short() {
		return 400
	}
	return 1000
}

// hammer runs users goroutines on s, user u issuing n ops drawn by next
// from its own stream rng.New(seed+u), each as a one-op batch tagged
// with worker u, and returns the first op error ("" when none).
func hammer(s *Store, users, n int, seed uint64, next func(r *rng.Rand) Op) string {
	done := make(chan string, users)
	for u := 0; u < users; u++ {
		go func() {
			r := rng.New(seed + uint64(u))
			for range n {
				if res := one(s, u, r, next(r)); res.Err != "" {
					done <- res.Err
					return
				}
			}
			done <- ""
		}()
	}
	first := ""
	for u := 0; u < users; u++ {
		if err := <-done; first == "" {
			first = err
		}
	}
	return first
}

// TestConcurrentMixedOps hammers one store with every op kind at
// once — inserts, deletes, counter RMWs and document updates racing
// on overlapping keys — and holds the structural invariants. This is
// the adversarial mix no single workload produces.
func TestConcurrentMixedOps(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			s := New(Config{Capacity: 256, IndexClasses: 8, STM: m.cfg})
			err := hammer(s, 4, mixedOps(), 100, func(r *rng.Rand) Op {
				key := uint64(r.Intn(96))
				switch r.Intn(5) {
				case 0:
					return Op{Kind: KindPut, Key: key, Val: r.Uint64() & 0xff}
				case 1:
					return Op{Kind: KindGet, Key: key}
				case 2:
					return Op{Kind: KindDelete, Key: key}
				case 3:
					return Op{Kind: KindAdd, Key: key, Val: 1}
				default:
					return Op{Kind: KindUpdateDoc, Key: (key / 4) * 4, Fields: 4, Val: r.Uint64() & 0xff}
				}
			})
			if err != "" {
				t.Fatal(err)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEscrowAddFolds drives pure Add traffic on a handful of hot
// keys through an escrow store on the folded batch path and holds
// the no-lost-updates invariant: the committed counter sum must
// equal the adds applied, even though every increment on an existing
// key committed as a blind delta the combiner may have folded. The
// structural checks run under the key-class discipline.
func TestEscrowAddFolds(t *testing.T) {
	cfg := stm.DefaultConfig()
	cfg.Lazy = true
	cfg.CommitBatch = 4
	cfg.FoldCommutative = true
	s := New(Config{Capacity: 64, IndexClasses: 8, EscrowCounters: true, STM: cfg})
	const users, addsPer, hotKeys = 4, 3000, 4
	if err := hammer(s, users, addsPer, 200, func(r *rng.Rand) Op {
		return Op{Kind: KindAdd, Key: uint64(r.Intn(hotKeys)), Val: 1}
	}); err != "" {
		t.Fatal(err)
	}
	var sum uint64
	s.Range(func(_, val uint64) { sum += val })
	if want := uint64(users * addsPer); sum != want {
		t.Fatalf("committed counter sum %d, want %d adds", sum, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every post-insert Add records a delta, and the combiner folds
	// deltas even in singleton batches — so the fold ledger must move.
	if got := s.Runtime().Stats.Snapshot()["foldedCommits"]; got == 0 {
		t.Fatal("no folded commits on the escrow Add path")
	}
}

// TestEscrowMixedOps reruns the adversarial op mix on an escrow
// store across all three commit paths (plus folding on the batched
// one): deletes and puts race blind Adds on overlapping keys, so the
// key-classed index and the combiner's mixed delta/plain fallback
// both get exercised. Structural invariants must hold throughout.
func TestEscrowMixedOps(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			cfg := m.cfg
			if cfg.CommitBatch > 0 {
				cfg.FoldCommutative = true
			}
			s := New(Config{Capacity: 256, IndexClasses: 8, EscrowCounters: true, STM: cfg})
			err := hammer(s, 4, mixedOps(), 300, func(r *rng.Rand) Op {
				key := uint64(r.Intn(32))
				switch r.Intn(4) {
				case 0:
					return Op{Kind: KindPut, Key: key, Val: r.Uint64() & 0xff}
				case 1:
					return Op{Kind: KindGet, Key: key}
				case 2:
					return Op{Kind: KindDelete, Key: key}
				default:
					return Op{Kind: KindAdd, Key: key, Val: 1}
				}
			})
			if err != "" {
				t.Fatal(err)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
