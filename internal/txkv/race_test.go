package txkv

import (
	"fmt"
	"testing"
	"time"

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
	users := 4
	d := 60 * time.Millisecond
	if testing.Short() {
		d = 25 * time.Millisecond
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
				res, err := w.RunLocal(s, GenConfig{
					Users:    users,
					Batch:    8,
					Duration: d,
					Seed:     7,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Ops == 0 {
					t.Fatal("no operations completed")
				}
			})
		}
	}
}

// TestConcurrentMixedOps hammers one store with every op kind at
// once — inserts, deletes, counter RMWs and document updates racing
// on overlapping keys — and holds the structural invariants. This is
// the adversarial mix no single workload produces.
func TestConcurrentMixedOps(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			s := New(Config{Capacity: 256, IndexClasses: 8, STM: m.cfg})
			const users = 4
			d := 50 * time.Millisecond
			if testing.Short() {
				d = 20 * time.Millisecond
			}
			done := make(chan error, users)
			stop := make(chan struct{})
			for u := 0; u < users; u++ {
				u := u
				go func() {
					r := rng.New(uint64(100 + u))
					for {
						select {
						case <-stop:
							done <- nil
							return
						default:
						}
						key := uint64(r.Intn(96))
						var err error
						switch r.Intn(5) {
						case 0:
							err = s.Put(u, r, key, r.Uint64()&0xff)
						case 1:
							_, _, err = s.Get(u, r, key)
						case 2:
							_, err = s.Delete(u, r, key)
						case 3:
							_, err = s.Add(u, r, key, 1)
						case 4:
							base := (key / 4) * 4
							err = s.UpdateDoc(u, r, base, 4, r.Uint64()&0xff)
						}
						if err != nil {
							done <- err
							return
						}
					}
				}()
			}
			time.Sleep(d)
			close(stop)
			for u := 0; u < users; u++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
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
	done := make(chan error, users)
	for u := 0; u < users; u++ {
		u := u
		go func() {
			r := rng.New(uint64(200 + u))
			for i := 0; i < addsPer; i++ {
				if _, err := s.Add(u, r, uint64(r.Intn(hotKeys)), 1); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for u := 0; u < users; u++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
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
			const users = 4
			d := 50 * time.Millisecond
			if testing.Short() {
				d = 20 * time.Millisecond
			}
			done := make(chan error, users)
			stop := make(chan struct{})
			for u := 0; u < users; u++ {
				u := u
				go func() {
					r := rng.New(uint64(300 + u))
					for {
						select {
						case <-stop:
							done <- nil
							return
						default:
						}
						key := uint64(r.Intn(32))
						var err error
						switch r.Intn(4) {
						case 0:
							err = s.Put(u, r, key, r.Uint64()&0xff)
						case 1:
							_, _, err = s.Get(u, r, key)
						case 2:
							_, err = s.Delete(u, r, key)
						default:
							_, err = s.Add(u, r, key, 1)
						}
						if err != nil {
							done <- err
							return
						}
					}
				}()
			}
			time.Sleep(d)
			close(stop)
			for u := 0; u < users; u++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
