package txkv

import (
	"errors"
	"reflect"
	"testing"
	"time"

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

func TestPutGetDelete(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			s := newTestStore(t, m.cfg, 64)
			r := rng.New(1)
			if _, ok, _ := s.Get(-1, r, 7); ok {
				t.Fatal("empty store found key 7")
			}
			if err := s.Put(-1, r, 7, 70); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(-1, r, 0, 100); err != nil { // key 0 is legal
				t.Fatal(err)
			}
			v, ok, err := s.Get(-1, r, 7)
			if err != nil || !ok || v != 70 {
				t.Fatalf("Get(7) = %d,%v,%v want 70,true,nil", v, ok, err)
			}
			if err := s.Put(-1, r, 7, 71); err != nil { // update
				t.Fatal(err)
			}
			if v, _, _ := s.Get(-1, r, 7); v != 71 {
				t.Fatalf("after update Get(7) = %d, want 71", v)
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d, want 2", s.Len())
			}
			if del, _ := s.Delete(-1, r, 7); !del {
				t.Fatal("Delete(7) reported absent")
			}
			if del, _ := s.Delete(-1, r, 7); del {
				t.Fatal("second Delete(7) reported present")
			}
			if _, ok, _ := s.Get(-1, r, 7); ok {
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
		if err := s.Put(-1, r, k, k*10); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if err := s.Put(-1, r, 99, 1); !errors.Is(err, ErrFull) {
		t.Fatalf("Put into full map = %v, want ErrFull", err)
	}
	// Delete every other key, creating tombstones mid-path.
	for k := uint64(0); k < 8; k += 2 {
		if del, err := s.Delete(-1, r, k); err != nil || !del {
			t.Fatalf("Delete(%d) = %v,%v", k, del, err)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Updates through tombstoned paths must hit the live copy, not
	// insert a duplicate at a reused tombstone.
	for k := uint64(1); k < 8; k += 2 {
		if err := s.Put(-1, r, k, k*100); err != nil {
			t.Fatalf("Put(%d) through tombstones: %v", k, err)
		}
		if v, ok, _ := s.Get(-1, r, k); !ok || v != k*100 {
			t.Fatalf("Get(%d) = %d,%v want %d,true", k, v, ok, k*100)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	// Reinsertions reuse tombstones.
	for k := uint64(0); k < 8; k += 2 {
		if err := s.Put(-1, r, k, k); err != nil {
			t.Fatalf("reinsert Put(%d): %v", k, err)
		}
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
				v, err := s.Add(-1, r, 5, 3)
				if err != nil {
					t.Fatal(err)
				}
				if want := uint64(3 * (i + 1)); v != want {
					t.Fatalf("Add #%d returned %d, want %d", i, v, want)
				}
			}
			if v, ok, _ := s.Get(-1, r, 5); !ok || v != 30 {
				t.Fatalf("Get(5) = %d,%v want 30,true", v, ok)
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
	if err := s.UpdateDoc(-1, r, 8, 4, 42); err != nil {
		t.Fatal(err)
	}
	vals, err := s.ReadDoc(-1, r, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for f, v := range vals {
		if v != 42 {
			t.Fatalf("doc field %d = %d, want 42", f, v)
		}
	}
	// Unwritten documents read all-zero (still all-equal).
	vals, err = s.ReadDoc(-1, r, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for f, v := range vals {
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
	if err := s.Put(-1, r, 1, 0); err != nil { // class 0
		t.Fatal(err)
	}
	if err := s.Put(-1, r, 1, 3); err != nil { // class 3: relink
		t.Fatal(err)
	}
	if err := s.Put(-1, r, 1, 7); err != nil { // class 3 again: no-op
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.Get(-1, r, 1); !ok || v != 7 {
		t.Fatalf("Get(1) = %d,%v want 7,true", v, ok)
	}
}

func TestBadKeysRejected(t *testing.T) {
	s := newTestStore(t, stm.DefaultConfig(), 16)
	r := rng.New(6)
	for _, key := range []uint64{^uint64(0), ^uint64(0) - 1} {
		if err := s.Put(-1, r, key, 1); err == nil {
			t.Fatalf("Put(%#x) accepted an unrepresentable key", key)
		}
		if _, _, err := s.Get(-1, r, key); err == nil {
			t.Fatalf("Get(%#x) accepted an unrepresentable key", key)
		}
	}
}

func TestRangeVisitsLiveKeys(t *testing.T) {
	s := newTestStore(t, stm.DefaultConfig(), 64)
	r := rng.New(7)
	want := map[uint64]uint64{1: 10, 2: 20, 3: 30}
	for k, v := range want {
		if err := s.Put(-1, r, k, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Delete(-1, r, 2); err != nil {
		t.Fatal(err)
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
					if err := s.Put(-1, r, k, k*10); err != nil {
						t.Fatal(err)
					}
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
// afresh instead of starting where the first batch ended.
func TestBatchStampDoesNotOutliveBatch(t *testing.T) {
	s := newTestStore(t, stm.DefaultConfig(), 64)
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
		if !Known(want) {
			t.Fatalf("Known(%q) = false; registered: %v", want, names)
		}
		w, err := ByName("  "+want+"  ", Options{}) // folding
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != want {
			t.Fatalf("ByName(%q).Name() = %q", want, w.Name())
		}
		if w.Keys() == 0 || w.Capacity() < int(w.Keys()) {
			t.Fatalf("%s sized keys=%d capacity=%d", want, w.Keys(), w.Capacity())
		}
	}
	if Known("nope") {
		t.Fatal("Known accepted an unregistered workload")
	}
	if _, err := ByName("nope", Options{}); err == nil {
		t.Fatal("ByName accepted an unregistered workload")
	}
	if len(Describe()) != len(names) {
		t.Fatalf("Describe lines %d != names %d", len(Describe()), len(names))
	}
}
