package stm

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"txconflict/internal/rng"
)

// TestLayout pins what the arena's cost model rests on: a word is one
// cache line with its lock word and its data in it, the commit clock
// sits a full line away from every other Runtime field (every Load and
// Store reads the header, every commit adds to the clock), a free-list
// head and a combiner lane have a line each, the word requestors write
// on a descriptor sits a full line away from the ones its owner reads
// on every attempt, and what the owner writes on every commit (ledger,
// phase sampler) a full line away from every word a requestor touches
// (distances, so they hold wherever the allocator puts the runtime and
// the descriptor).
func TestLayout(t *testing.T) {
	var m wordMeta
	if unsafe.Sizeof(m) != cacheLine || unsafe.Offsetof(m.lock)+8 > cacheLine || unsafe.Offsetof(m.val)+8 > cacheLine {
		t.Errorf("wordMeta: size %d, lock at %d, val at %d; want one %d-byte line holding both",
			unsafe.Sizeof(m), unsafe.Offsetof(m.lock), unsafe.Offsetof(m.val), cacheLine)
	}
	var rt Runtime
	clock := unsafe.Offsetof(rt.clock)
	for i, rtt := 0, reflect.TypeOf((*Runtime)(nil)).Elem(); i < rtt.NumField(); i++ {
		f := rtt.Field(i)
		if f.Name == "_" || f.Name == "clock" {
			continue
		}
		if end := f.Offset + f.Type.Size(); f.Offset < clock+8+cacheLine && clock < end+cacheLine {
			t.Errorf("Runtime.clock at %d can share a line with Runtime.%s at %d (%d bytes)", clock, f.Name, f.Offset, f.Type.Size())
		}
	}
	if end := unsafe.Sizeof(rt); end < clock+cacheLine {
		t.Errorf("Runtime.clock at %d can share a line with whatever follows the Runtime at %d", clock, end)
	}
	if sz := unsafe.Sizeof(freeList{}); sz != cacheLine {
		t.Errorf("freeList is %d bytes, want %d", sz, cacheLine)
	}
	if sz := unsafe.Sizeof(batchShard{}); sz != cacheLine {
		t.Errorf("batchShard is %d bytes, want %d", sz, cacheLine)
	}
	var tx Tx
	waiters := unsafe.Offsetof(tx.waiters)
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"rt", unsafe.Offsetof(tx.rt) + unsafe.Sizeof(tx.rt)},
		{"pol", unsafe.Offsetof(tx.pol) + unsafe.Sizeof(tx.pol)},
		{"state", unsafe.Offsetof(tx.state) + unsafe.Sizeof(tx.state)},
		{"rv", unsafe.Offsetof(tx.rv) + unsafe.Sizeof(tx.rv)},
	} {
		if waiters < f.end+cacheLine {
			t.Errorf("Tx.waiters at %d can share a line with Tx.%s ending at %d", waiters, f.name, f.end)
		}
	}
	if end := unsafe.Sizeof(tx); end < waiters+cacheLine {
		t.Errorf("Tx.waiters at %d can share a line with whatever follows the descriptor at %d", waiters, end)
	}
	// The ledger, the attempt's private stamps and the block sampler are
	// written by the owner on every block: none of their bytes may share
	// a line with a word a requestor polls or writes, or each block would
	// take that line away from a waiter.
	type span struct {
		name        string
		start, size uintptr
	}
	for _, o := range []span{
		{"ledN", unsafe.Offsetof(tx.ledN), unsafe.Sizeof(tx.ledN)},
		{"pend", unsafe.Offsetof(tx.pend), unsafe.Sizeof(tx.pend)},
		{"start", unsafe.Offsetof(tx.start), unsafe.Sizeof(tx.start)},
		{"sampled", unsafe.Offsetof(tx.sampled), unsafe.Sizeof(tx.sampled)},
		{"phased", unsafe.Offsetof(tx.phased), unsafe.Sizeof(tx.phased)},
		{"sampler", unsafe.Offsetof(tx.sampler), unsafe.Sizeof(tx.sampler)},
		{"ledAttempt", unsafe.Offsetof(tx.ledAttempt), unsafe.Sizeof(tx.ledAttempt)},
		{"ledBlock", unsafe.Offsetof(tx.ledBlock), unsafe.Sizeof(tx.ledBlock)},
	} {
		for _, f := range []span{
			{"state", unsafe.Offsetof(tx.state), unsafe.Sizeof(tx.state)},
			{"irrevocable", unsafe.Offsetof(tx.irrevocable), unsafe.Sizeof(tx.irrevocable)},
			{"startNanos", unsafe.Offsetof(tx.startNanos), unsafe.Sizeof(tx.startNanos)},
			{"attempts", unsafe.Offsetof(tx.attempts), unsafe.Sizeof(tx.attempts)},
			{"waiters", waiters, unsafe.Sizeof(tx.waiters)},
		} {
			if o.start < f.start+f.size+cacheLine && f.start < o.start+o.size+cacheLine {
				t.Errorf("Tx.%s at %d (%d bytes) can share a line with Tx.%s at %d (%d bytes)",
					o.name, o.start, o.size, f.name, f.start, f.size)
			}
		}
	}
}

// TestLockWordRoundTrip: the three fields come back out of every
// transition at both ends of their ranges, and the version survives
// being locked.
func TestLockWordRoundTrip(t *testing.T) {
	for _, ver := range []uint64{0, 1, maxVersion - 1, maxVersion} {
		for _, id := range []uint64{1, maxDescs} {
			u := unlockedAt(ver)
			if isLocked(u) || lockVersion(u) != ver || lockOwner(u) != 0 {
				t.Fatalf("unlockedAt(%d) = %#x: locked %v, version %d, owner %d", ver, u, isLocked(u), lockVersion(u), lockOwner(u))
			}
			l := lockedBy(u, id)
			if !isLocked(l) || lockVersion(l) != ver || lockOwner(l) != id {
				t.Fatalf("lockedBy(%#x, %d) = %#x: locked %v, version %d, owner %d", u, id, l, isLocked(l), lockVersion(l), lockOwner(l))
			}
			if unlockedKeep(l) != u {
				t.Fatalf("unlockedKeep(%#x) = %#x, want %#x", l, unlockedKeep(l), u)
			}
		}
	}
}

// TestVersionOverflowPanics: the commit clock at the version field's
// limit refuses the next stamp with errVersionOverflow on every path
// that draws one — commit in each mode and the eager rollback —
// instead of publishing a truncated version, which would read as old
// and let a reader skip an extension. One step below the limit still
// commits, and the word carries the limit itself.
func TestVersionOverflowPanics(t *testing.T) {
	write := func(tx *Tx) error { tx.Store(0, tx.Load(0)+1); return nil }
	fail := errors.New("roll back")
	for _, c := range []struct {
		name  string
		lazy  bool
		batch int
		body  func(tx *Tx) error
	}{
		{"eager commit", false, 0, write},
		{"eager rollback", false, 0, func(tx *Tx) error { _ = write(tx); return fail }},
		{"lazy commit", true, 0, write},
		{"combiner stamp", true, 4, write},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Lazy, cfg.CommitBatch = c.lazy, c.batch
			rt := New(2, cfg)
			r := rng.New(1)
			rt.clock.Store(maxVersion - 1)
			if err := rt.Atomic(r, c.body); err != nil && err != fail {
				t.Fatal(err)
			}
			if l := rt.meta[0].lock.Load(); isLocked(l) || lockVersion(l) != maxVersion {
				t.Fatalf("lock word %#x after the last legal stamp, want unlocked at version %d", l, maxVersion)
			}
			defer func() {
				if p, _ := recover().(error); !errors.Is(p, errVersionOverflow) {
					t.Fatalf("stamp past the limit: recovered %v, want errVersionOverflow", p)
				}
			}()
			_ = rt.Atomic(r, c.body)
		})
	}
}

// TestDescriptorExhaustion shrinks the id space to two: a third handle
// waits for a Release and then runs on the released id.
func TestDescriptorExhaustion(t *testing.T) {
	rt := New(1, DefaultConfig())
	rt.descLimit = 2
	r := rng.New(1)
	w1, w2 := rt.Worker(0, r), rt.Worker(0, r)
	got := make(chan uint64)
	go func() {
		w3 := rt.Worker(0, rng.New(2))
		got <- w3.tx.id
		w3.Release()
	}()
	select {
	case id := <-got:
		t.Fatalf("third handle got id %d with both ids held", id)
	case <-time.After(20 * time.Millisecond):
	}
	freed := w2.tx.id
	w2.Release()
	if id := <-got; id != freed {
		t.Fatalf("third handle got id %d, want the released %d", id, freed)
	}
	w1.Release()
	if n := len(*rt.descs.Load()) - 1; n != 2 {
		t.Fatalf("table holds %d descriptors, want 2", n)
	}
}

// TestDescriptorTableSteadyState: the table grows to the most handles
// ever open at once and stays there — 100,000 open/run/release cycles
// with collections in between take no further id.
func TestDescriptorTableSteadyState(t *testing.T) {
	const peak = 3
	rt := New(4, DefaultConfig())
	r := rng.New(1)
	cycles := 100_000
	if testing.Short() {
		cycles = 10_000
	}
	var ws [peak]Worker
	for i := 0; i < cycles; i++ {
		n := 1 + i%peak
		for j := 0; j < n; j++ {
			ws[j] = rt.Worker(0, r)
		}
		_ = ws[0].Atomic(func(tx *Tx) error { tx.Store(i&3, uint64(i)); return nil })
		for j := 0; j < n; j++ {
			ws[j].Release()
		}
		if i%1000 == 0 {
			runtime.GC()
		}
	}
	if n := len(*rt.descs.Load()) - 1; n != peak {
		t.Fatalf("%d cycles at a peak of %d handles used %d ids", cycles, peak, n)
	}
}

// TestFreeListConcurrent hammers one free list from several goroutines
// (under -race and at -cpu 1,4 in make race-short): no descriptor is
// ever held by two handles at once, and the table stays at the
// goroutine count.
func TestFreeListConcurrent(t *testing.T) {
	const goroutines = 4
	rt := New(goroutines, DefaultConfig())
	held := make([]int32, goroutines+1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 1)
			for i := 0; i < 5000; i++ {
				w := rt.Worker(0, r)
				mu.Lock()
				held[w.tx.id]++
				double := held[w.tx.id] != 1
				mu.Unlock()
				if double {
					t.Errorf("descriptor %d handed to two handles", w.tx.id)
				}
				_ = w.Atomic(func(tx *Tx) error { tx.Store(g, tx.Load(g)+1); return nil })
				mu.Lock()
				held[w.tx.id]--
				mu.Unlock()
				w.Release()
			}
		}(g)
	}
	wg.Wait()
	if n := len(*rt.descs.Load()) - 1; n > goroutines {
		t.Fatalf("%d goroutines used %d ids", goroutines, n)
	}
}

// TestStaleLockWordNeitherKillsNorWaits is the id-reuse ABA on the
// conflict path: a requestor loaded a lock word naming id N; N's holder
// then committed and released its handle, another descriptor took the
// word, and N went to a new handle that is mid-attempt elsewhere. The
// requestor, resolving its stale word, must see the lock as moved on:
// no kill of N's new attempt, no waiter registered on N, no grace wait
// (the strategy asks for ten seconds, so a wait would also show as
// one).
func TestStaleLockWordNeitherKillsNorWaits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = unclampedGrace(10 * time.Second / time.Nanosecond)
	cfg.MaxRetries = 0
	rt := New(2, cfg)
	r := rng.New(1)

	wA, wB := rt.Worker(0, r), rt.Worker(0, rng.New(2))
	var stale uint64
	_ = wA.Atomic(func(tx *Tx) error {
		tx.Store(0, 1)
		stale = rt.meta[0].lock.Load()
		return nil
	})
	n := wA.tx.id
	if !isLocked(stale) || lockOwner(stale) != n {
		t.Fatalf("staging: lock word %#x does not name descriptor %d", stale, n)
	}
	wA.Release()
	wC := rt.Worker(0, rng.New(3))
	if wC.tx.id != n {
		t.Fatalf("staging: id %d was not reused (got %d)", n, wC.tx.id)
	}

	// B holds word 0 and N's new attempt holds word 1, both parked.
	held := make(chan struct{}, 2)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for _, h := range []struct {
		w   *Worker
		idx int
	}{{&wB, 0}, {&wC, 1}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = h.w.Atomic(func(tx *Tx) error {
				tx.Store(h.idx, 7)
				held <- struct{}{}
				<-release
				return nil
			})
		}()
	}
	<-held
	<-held
	if l := rt.meta[0].lock.Load(); !isLocked(l) || lockOwner(l) != wB.tx.id {
		t.Fatalf("staging: word 0 is %#x, want locked by descriptor %d", l, wB.tx.id)
	}
	st := wC.tx.state.Load()

	wR := rt.Worker(1, rng.New(4))
	_ = wR.Atomic(func(tx *Tx) error {
		tx.onLocked(&rt.meta[0], stale)
		return nil
	})
	wR.Release()

	if got := wC.tx.state.Load(); got != st || got&stateStatusMask != statusActive {
		t.Errorf("descriptor %d's new attempt: state %#x -> %#x", n, st, got)
	}
	if w := wC.tx.waiters.Load(); w != 0 {
		t.Errorf("stale requestor left %d waiters on descriptor %d", w, n)
	}
	if s := rt.Stats.Snapshot(); s["kills"] != 0 || s["graceWaits"] != 0 {
		t.Errorf("stale requestor killed or waited: %v", s)
	}
	close(release)
	wg.Wait()
	wB.Release()
	wC.Release()
	if s := rt.Stats.Snapshot(); s["commits"] != 4 || s["aborts"] != 0 {
		t.Errorf("after release: %v, want 4 commits and no aborts", s)
	}
}
