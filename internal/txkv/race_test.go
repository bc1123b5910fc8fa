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
// paths (eager / lazy / lazy+CommitBatch=4). After each run the
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
	for _, wname := range Names() {
		for _, m := range modes() {
			t.Run(fmt.Sprintf("%s/%s", wname, m.name), func(t *testing.T) {
				w, err := ByName(wname, Options{})
				if err != nil {
					t.Fatal(err)
				}
				s := w.NewStore(Config{STM: m.cfg})
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

// TestPerfSmoke keeps the BENCH_txkv.json emitter honest: a minimal
// matrix must produce verified cells for every workload x mode pair.
func TestPerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf matrix is slow; covered by make bench-txkv in CI")
	}
	rep, err := Perf(PerfConfig{
		Procs:    []int{1, 2},
		Duration: 25 * time.Millisecond,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(Names()) * 4 * 2 // workloads x modes x procs
	if len(rep.Cells) != want {
		t.Fatalf("perf matrix has %d cells, want %d", len(rep.Cells), want)
	}
	for _, c := range rep.Cells {
		if c.OpsPerSec <= 0 || c.Commits == 0 {
			t.Fatalf("dead cell: %+v", c)
		}
	}
}

// stmConfigString pins the mode labels used by BENCH_txkv.json cells
// against the runtime's own Config.String rendering.
func TestPerfModeLabels(t *testing.T) {
	ms := perfModes(4)
	if ms[0].name != "eager" || ms[1].name != "lazy" || ms[2].name != "lazy+batch4" {
		t.Fatalf("mode labels: %q/%q/%q", ms[0].name, ms[1].name, ms[2].name)
	}
	if !ms[2].cfg.Lazy || ms[2].cfg.CommitBatch != 4 {
		t.Fatalf("lazy+batch4 config: %+v", ms[2].cfg)
	}
	if ms[3].name != "lazy+batch4+fold" || !ms[3].cfg.FoldCommutative || !ms[3].escrow {
		t.Fatalf("folded mode: %q %+v escrow=%v", ms[3].name, ms[3].cfg, ms[3].escrow)
	}
}
