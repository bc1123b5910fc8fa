package txkv

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

func newTestStore(t *testing.T, cfg stm.Config, capacity int) *Store {
	t.Helper()
	return New(Config{Capacity: capacity, STM: cfg})
}

// modes returns the three commit paths every txkv test matrix runs:
// eager encounter-time locking, lazy (TL2), and lazy with the
// group-commit combiner — the same triple as the scenario cross-mode
// suite.
func modes() []struct {
	name string
	cfg  stm.Config
} {
	eager := stm.DefaultConfig()
	lazy := eager
	lazy.Lazy = true
	batched := lazy
	batched.CommitBatch = 4
	return []struct {
		name string
		cfg  stm.Config
	}{
		{"eager", eager},
		{"lazy", lazy},
		{"lazy+batch4", batched},
	}
}

// one runs op as a batch of one: the store has no other way in.
func one(s *Store, worker int, r *rng.Rand, op Op) Result {
	return s.ApplyBatch(worker, r, []Op{op})[0]
}

// drive runs the workload closed-loop for a fixed amount of traffic,
// without a clock: each of users goroutines issues rounds batches of
// batch ops drawn from its User.Next through its own client and checks
// every response with User.Observe. newClient gets the user index and
// a stream for the client's own transactions; each user's op stream
// and client stream are the next two splits of seed. It returns the
// users' merged Totals for Workload.Check, or the first transport
// error, short response or failed observation.
func drive(w *Workload, newClient func(u int, r *rng.Rand) Client, users, batch, rounds int, seed uint64) (Totals, error) {
	root := rng.New(seed)
	usrs := make([]*User, users)
	errs := make([]error, users)
	var wg sync.WaitGroup
	for u := range usrs {
		ru, rc := root.Split(), root.Split()
		usr := w.NewUser(u)
		usrs[u] = usr
		client := newClient(u, rc)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := make([]Op, batch)
			for i := 0; i < rounds; i++ {
				for j := range ops {
					ops[j] = usr.Next(ru)
				}
				results, err := client.Do(ops)
				if err == nil && len(results) != len(ops) {
					err = fmt.Errorf("%d results for %d ops", len(results), len(ops))
				}
				for j := 0; err == nil && usr.Observe != nil && j < len(ops); j++ {
					err = usr.Observe(ops[j], results[j])
				}
				if err != nil {
					errs[u] = fmt.Errorf("txkv: user %d: %w", u, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var tot Totals
	for u, usr := range usrs {
		if errs[u] != nil {
			return tot, errs[u]
		}
		tot.Adds += usr.totals.Adds
	}
	return tot, nil
}

// mustPut puts key = val through a one-op batch and fails the test on
// any error.
func mustPut(t *testing.T, s *Store, r *rng.Rand, key, val uint64) {
	t.Helper()
	if res := one(s, -1, r, Op{Kind: KindPut, Key: key, Val: val}); res.Err != "" {
		t.Fatalf("put(%d, %d): %s", key, val, res.Err)
	}
}

func TestPutGetDelete(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			s := newTestStore(t, m.cfg, 64)
			r := rng.New(1)
			get := func(key uint64) Result { return one(s, -1, r, Op{Kind: KindGet, Key: key}) }
			del := func(key uint64) Result { return one(s, -1, r, Op{Kind: KindDelete, Key: key}) }
			if get(7).Found {
				t.Fatal("empty store found key 7")
			}
			mustPut(t, s, r, 7, 70)
			mustPut(t, s, r, 0, 100) // key 0 is legal
			if res := get(7); res.Err != "" || !res.Found || res.Val != 70 {
				t.Fatalf("get(7) = %+v want 70,true", res)
			}
			mustPut(t, s, r, 7, 71) // update
			if res := get(7); res.Val != 71 {
				t.Fatalf("after update get(7) = %d, want 71", res.Val)
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d, want 2", s.Len())
			}
			if !del(7).Found {
				t.Fatal("del(7) reported absent")
			}
			if del(7).Found {
				t.Fatal("second del(7) reported present")
			}
			if get(7).Found {
				t.Fatal("deleted key still found")
			}
			if s.Len() != 1 {
				t.Fatalf("Len after delete = %d, want 1", s.Len())
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCollisionsAndTombstones forces every key onto a shared probe
// path by filling a tiny map, deleting from the middle, and
// reinserting — the open-addressing edge cases (tombstone reuse must
// not shadow a live copy deeper in the path).
func TestCollisionsAndTombstones(t *testing.T) {
	s := newTestStore(t, stm.DefaultConfig(), 8)
	r := rng.New(2)
	for k := uint64(0); k < 8; k++ {
		mustPut(t, s, r, k, k*10)
	}
	if res := one(s, -1, r, Op{Kind: KindPut, Key: 99, Val: 1}); res.Err != ErrFull.Error() {
		t.Fatalf("put into full map = %q, want %q", res.Err, ErrFull)
	}
	// Delete every other key, creating tombstones mid-path.
	for k := uint64(0); k < 8; k += 2 {
		if res := one(s, -1, r, Op{Kind: KindDelete, Key: k}); res.Err != "" || !res.Found {
			t.Fatalf("del(%d) = %+v", k, res)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Updates through tombstoned paths must hit the live copy, not
	// insert a duplicate at a reused tombstone.
	for k := uint64(1); k < 8; k += 2 {
		mustPut(t, s, r, k, k*100)
		if res := one(s, -1, r, Op{Kind: KindGet, Key: k}); !res.Found || res.Val != k*100 {
			t.Fatalf("get(%d) = %d,%v want %d,true", k, res.Val, res.Found, k*100)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	// Reinsertions reuse tombstones.
	for k := uint64(0); k < 8; k += 2 {
		mustPut(t, s, r, k, k)
	}
	if s.Len() != 8 {
		t.Fatalf("Len after reinserts = %d, want 8", s.Len())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddCounter(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			s := newTestStore(t, m.cfg, 64)
			r := rng.New(3)
			for i := 0; i < 10; i++ {
				res := one(s, -1, r, Op{Kind: KindAdd, Key: 5, Val: 3})
				if res.Err != "" {
					t.Fatal(res.Err)
				}
				if want := uint64(3 * (i + 1)); res.Val != want {
					t.Fatalf("add #%d returned %d, want %d", i, res.Val, want)
				}
			}
			if res := one(s, -1, r, Op{Kind: KindGet, Key: 5}); !res.Found || res.Val != 30 {
				t.Fatalf("get(5) = %d,%v want 30,true", res.Val, res.Found)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDocumentAtomicity(t *testing.T) {
	s := newTestStore(t, stm.DefaultConfig(), 64)
	r := rng.New(4)
	if res := one(s, -1, r, Op{Kind: KindUpdateDoc, Key: 8, Fields: 4, Val: 42}); res.Err != "" {
		t.Fatal(res.Err)
	}
	res := one(s, -1, r, Op{Kind: KindReadDoc, Key: 8, Fields: 4})
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	for f, v := range res.Vals {
		if v != 42 {
			t.Fatalf("doc field %d = %d, want 42", f, v)
		}
	}
	// Unwritten documents read all-zero (still all-equal).
	res = one(s, -1, r, Op{Kind: KindReadDoc, Key: 32, Fields: 4})
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	for f, v := range res.Vals {
		if v != 0 {
			t.Fatalf("unwritten doc field %d = %d, want 0", f, v)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexClassRelink pins the secondary index's relink-on-update
// path: changing a value's class must move its bucket between class
// chains exactly once.
func TestIndexClassRelink(t *testing.T) {
	s := New(Config{Capacity: 32, IndexClasses: 4, STM: stm.DefaultConfig()})
	r := rng.New(5)
	mustPut(t, s, r, 1, 0) // class 0
	mustPut(t, s, r, 1, 3) // class 3: relink
	mustPut(t, s, r, 1, 7) // class 3 again: no-op
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res := one(s, -1, r, Op{Kind: KindGet, Key: 1}); !res.Found || res.Val != 7 {
		t.Fatalf("get(1) = %d,%v want 7,true", res.Val, res.Found)
	}
}

// TestBadKeysRejected: an op naming a key the store cannot represent
// (^0 is the tombstone, stored keys are userKey+1) errors and leaves
// the store intact — including a document whose key range wraps past
// ^0 into the tombstone and the empty word.
func TestBadKeysRejected(t *testing.T) {
	const top = ^uint64(0)
	for _, op := range []Op{
		{Kind: KindPut, Key: top, Val: 1},
		{Kind: KindPut, Key: top - 1, Val: 1},
		{Kind: KindGet, Key: top},
		{Kind: KindGet, Key: top - 1},
		{Kind: KindUpdateDoc, Key: top - 1, Fields: 3, Val: 1}, // keys top-1, top, 0
		{Kind: KindReadDoc, Key: top - 1, Fields: 3},
	} {
		s := newTestStore(t, stm.DefaultConfig(), 16)
		if res := s.ApplyBatch(-1, rng.New(6), []Op{op})[0]; res.Err == "" {
			t.Errorf("%+v accepted an unrepresentable key: %+v", op, res)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("%+v: %v", op, err)
		}
	}
}

func TestRangeVisitsLiveKeys(t *testing.T) {
	s := newTestStore(t, stm.DefaultConfig(), 64)
	r := rng.New(7)
	want := map[uint64]uint64{1: 10, 2: 20, 3: 30}
	for k, v := range want {
		mustPut(t, s, r, k, v)
	}
	if res := one(s, -1, r, Op{Kind: KindDelete, Key: 2}); res.Err != "" {
		t.Fatal(res.Err)
	}
	delete(want, 2)
	got := map[uint64]uint64{}
	s.Range(func(k, v uint64) { got[k] = v })
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestApplyBatch(t *testing.T) {
	s := newTestStore(t, stm.DefaultConfig(), 64)
	r := rng.New(8)
	res := s.ApplyBatch(-1, r, []Op{
		{Kind: KindPut, Key: 1, Val: 11},
		{Kind: KindAdd, Key: 1, Val: 4},
		{Kind: KindGet, Key: 1},
		{Kind: KindDelete, Key: 1},
		{Kind: KindGet, Key: 1},
		{Kind: "bogus"},
	})
	if res[0].Err != "" || res[1].Val != 15 || !res[2].Found || res[2].Val != 15 {
		t.Fatalf("batch prefix results: %+v", res[:3])
	}
	if !res[3].Found || res[4].Found {
		t.Fatalf("delete/get results: %+v", res[3:5])
	}
	if res[5].Err == "" {
		t.Fatal("unknown op kind did not error")
	}
}

// TestApplyBatchIntoOverwritesSlots: a serving loop hands ApplyBatchInto
// the result slice of its previous request, so every slot must come
// back as if freshly made. Over a dst whose slots all carry a stale
// Val, Vals, Found and Err, a batch of all six kinds — hits, misses and
// every user-level error — returns exactly what ApplyBatch returns on a
// twin store, in dst's own memory.
func TestApplyBatchIntoOverwritesSlots(t *testing.T) {
	const badKey = ^uint64(0) - 1
	ops := []Op{
		{Kind: KindGet, Key: 1},
		{Kind: KindGet, Key: 100},                  // miss
		{Kind: KindPut, Key: 99, Val: 1},           // map full
		{Kind: KindAdd, Key: 98, Val: 5},           // map full, Val still set
		{Kind: KindUpdateDoc, Key: 200, Fields: 2}, // map full
		{Kind: KindPut, Key: 1, Val: 7},            // update in place
		{Kind: KindAdd, Key: 1, Val: 3},            // Val 10
		{Kind: KindDelete, Key: 2},                 // Found
		{Kind: KindDelete, Key: 2},                 // miss
		{Kind: KindReadDoc, Key: 0, Fields: 3},     // Vals
		{Kind: KindUpdateDoc, Key: 0, Fields: 2, Val: 4},
		{Kind: KindPut, Key: badKey, Val: 1},
		{Kind: KindGet, Key: badKey},
		{Kind: KindDelete, Key: badKey},
		{Kind: KindAdd, Key: badKey, Val: 1},
		{Kind: KindUpdateDoc, Key: badKey, Fields: 1},
		{Kind: KindReadDoc, Key: badKey - 1, Fields: 2}, // the last field is the bad key
		{Kind: KindReadDoc, Key: 0},                     // fields <= 0
		{Kind: KindUpdateDoc, Key: 0, Fields: -1},
		{Kind: KindReadDoc, Key: 0, Fields: 9}, // more fields than buckets
		{Kind: "bogus", Key: 1, Val: 1},
		{Kind: ""},
		{Kind: KindReadDoc, Key: 0, Fields: 2},
		{Kind: KindGet, Key: 1},
	}
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			twin := func() *Store {
				s := newTestStore(t, m.cfg, 8)
				r := rng.New(2)
				for k := uint64(0); k < 8; k++ {
					mustPut(t, s, r, k, k*10)
				}
				return s
			}
			want := twin().ApplyBatch(-1, rng.New(3), ops)
			errs := 0
			for _, res := range want {
				if res.Err != "" {
					errs++
				}
			}
			if errs != 14 || want[6].Val != 10 || !want[7].Found || len(want[9].Vals) != 3 {
				t.Fatalf("staging: %d of the ops errored (want 14), results %+v", errs, want)
			}

			dst := make([]Result, len(ops)+3)
			for i := range dst {
				dst[i] = Result{Val: 0xdead, Vals: []uint64{9, 9, 9}, Found: true, Err: "stale"}
			}
			got := twin().ApplyBatchInto(dst, -1, rng.New(3), ops)
			if &got[0] != &dst[0] {
				t.Fatal("a dst with room was not reused")
			}
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("op %d %+v over a stale slot: %+v, want %+v", i, ops[i], got[i], want[i])
					}
				}
			}
		})
	}
}

// TestBatchStampDoesNotOutliveBatch: a batch chains its ops' start
// stamps on one stm.Worker handle, and the handle ends with the batch.
// Two batches 20 ms apart must therefore leave no commit latency
// anywhere near 20 ms — the second batch's first op reads the clock
// afresh instead of starting where the first batch ended. The plane
// samples every block, so every op's latency is observed.
func TestBatchStampDoesNotOutliveBatch(t *testing.T) {
	cfg := stm.DefaultConfig()
	cfg.Metrics = metrics.NewPlane(1, 1)
	s := newTestStore(t, cfg, 64)
	r := rng.New(9)
	ops := []Op{{Kind: KindPut, Key: 1, Val: 1}, {Kind: KindGet, Key: 1}, {Kind: KindAdd, Key: 1, Val: 2}}
	s.ApplyBatch(0, r, ops)
	time.Sleep(20 * time.Millisecond)
	s.ApplyBatch(0, r, ops)
	commit := s.Runtime().Metrics().Snapshot().Commit
	if n := int(commit.Count); n != 2*len(ops) {
		t.Fatalf("commits = %d, want %d", n, 2*len(ops))
	}
	if max := time.Duration(commit.Quantile(1)); max > 10*time.Millisecond {
		t.Fatalf("slowest commit %v: a stamp crossed the 20 ms gap between two batches", max)
	}
}

// TestWorkloadRegistry pins the CLI-facing registry surface.
func TestWorkloadRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"readmostly", "hotspot-counter", "document"} {
		if !slices.Contains(names, want) {
			t.Fatalf("Names() lacks %q: %v", want, names)
		}
		w, err := ByName("  "+want+"  ", Options{}) // folding
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != want {
			t.Fatalf("ByName(%q).Name() = %q", want, w.Name())
		}
		if w.keys == 0 || w.Capacity() < int(w.keys) {
			t.Fatalf("%s sized keys=%d capacity=%d", want, w.keys, w.Capacity())
		}
	}
	if slices.Contains(names, "nope") {
		t.Fatal("Names() lists an unregistered workload")
	}
	if _, err := ByName("nope", Options{}); err == nil {
		t.Fatal("ByName accepted an unregistered workload")
	}
	if len(Describe()) != len(names) {
		t.Fatalf("Describe lines %d != names %d", len(Describe()), len(names))
	}
}
