package cache

import (
	"testing"
	"testing/quick"

	"txconflict/internal/rng"
)

func TestLineMath(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 || LineOf(130) != 2 {
		t.Fatal("LineOf wrong")
	}
	if WordOf(0) != 0 || WordOf(8) != 1 || WordOf(63) != 7 || WordOf(64) != 0 {
		t.Fatal("WordOf wrong")
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("state strings wrong")
	}
	if State(7).String() != "State(7)" {
		t.Fatal("unknown state string wrong")
	}
}

func TestNewValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {3, 2}, {-4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			New(bad[0], bad[1])
		}()
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(4, 2)
	if c.Lookup(10) != nil {
		t.Fatal("cold lookup hit")
	}
	l, _, ev := c.Insert(10)
	if ev {
		t.Fatal("insert into empty set evicted")
	}
	l.State = Shared
	if got := c.Lookup(10); got == nil || got.Tag != 10 {
		t.Fatal("lookup after insert missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestInsertExistingReturnsSameLine(t *testing.T) {
	c := New(4, 2)
	l1, _, _ := c.Insert(10)
	l1.State = Modified
	l1.Data[3] = 99
	l2, _, ev := c.Insert(10)
	if ev {
		t.Fatal("re-insert evicted")
	}
	if l2 != l1 || l2.Data[3] != 99 {
		t.Fatal("re-insert did not return existing line")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(1, 2) // one set, two ways
	a, _, _ := c.Insert(1)
	a.State = Shared
	b, _, _ := c.Insert(2)
	b.State = Shared
	c.Lookup(1) // touch 1; 2 becomes LRU
	_, victim, ev := c.Insert(3)
	if !ev || victim.Tag != 2 {
		t.Fatalf("expected to evict line 2, got ev=%v tag=%d", ev, victim.Tag)
	}
	if c.Peek(1) == nil || c.Peek(2) != nil {
		t.Fatal("wrong line evicted")
	}
}

func TestEvictionPrefersInvalid(t *testing.T) {
	c := New(1, 2)
	a, _, _ := c.Insert(1)
	a.State = Shared
	// Second way still invalid; inserting must not evict.
	_, _, ev := c.Insert(2)
	if ev {
		t.Fatal("evicted despite free way")
	}
}

func TestEvictionAvoidsTxLines(t *testing.T) {
	c := New(1, 2)
	a, _, _ := c.Insert(1)
	a.State = Modified
	c.MarkTx(a, false)
	b, _, _ := c.Insert(2)
	b.State = Shared
	c.Lookup(1) // 1 is MRU *and* Tx; 2 is LRU non-Tx
	l3, victim, ev := c.Insert(3)
	if !ev || victim.Tag != 2 {
		t.Fatalf("should evict non-Tx line 2, evicted %d", victim.Tag)
	}
	// Now both remaining lines (1 Tx, 3) — make 3 Tx too and force a
	// Tx eviction.
	l3.State = Shared
	c.MarkTx(l3, false)
	_, victim, ev = c.Insert(4)
	if !ev || !victim.Tx {
		t.Fatal("forced eviction should surface a Tx victim")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(2, 2)
	l, _, _ := c.Insert(5)
	l.State = Modified
	l.Data[0] = 42
	old, ok := c.Invalidate(5)
	if !ok || old.Data[0] != 42 || old.State != Modified {
		t.Fatal("invalidate did not return old contents")
	}
	if c.Peek(5) != nil {
		t.Fatal("line still present after invalidate")
	}
	if _, ok := c.Invalidate(5); ok {
		t.Fatal("double invalidate reported ok")
	}
}

func TestTxBitLifecycle(t *testing.T) {
	c := New(4, 2)
	for _, la := range []LineAddr{1, 2, 3} {
		l, _, _ := c.Insert(la)
		l.State = Modified
		c.MarkTx(l, la == 2)
	}
	nl, _, _ := c.Insert(9)
	nl.State = Shared // non-tx line
	if got := len(c.TxLines()); got != 3 {
		t.Fatalf("TxLines = %d", got)
	}
	c.ClearTxBits()
	if got := len(c.TxLines()); got != 0 {
		t.Fatalf("TxLines after clear = %d", got)
	}
	if c.Peek(2).TxDirty {
		t.Fatal("TxDirty survived commit")
	}
	if c.Peek(9) == nil {
		t.Fatal("non-tx line disturbed by commit")
	}
}

func TestDropTxLines(t *testing.T) {
	c := New(4, 2)
	for _, la := range []LineAddr{1, 2} {
		l, _, _ := c.Insert(la)
		l.State = Modified
		c.MarkTx(l, false)
	}
	l, _, _ := c.Insert(3)
	l.State = Shared
	if dropped := c.DropTxLines(); dropped != 2 {
		t.Fatalf("dropped %d", dropped)
	}
	if c.Peek(1) != nil || c.Peek(2) != nil {
		t.Fatal("tx lines survived abort")
	}
	if c.Peek(3) == nil {
		t.Fatal("non-tx line dropped by abort")
	}
}

// sweepTx is what the transactional footprint meant before the cache
// remembered it: every valid line with Tx set, in ForEach order.
func sweepTx(c *Cache) []LineAddr {
	var out []LineAddr
	c.ForEach(func(l *Line) {
		if l.Tx {
			out = append(out, l.Tag)
		}
	})
	return out
}

func sameAddrs(a, b []LineAddr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTxSetOrderAndDuplicates marks lines out of index order, some
// twice: ForEachTx and TxLines must list each once, in ForEach order.
func TestTxSetOrderAndDuplicates(t *testing.T) {
	c := New(4, 2)
	for _, la := range []LineAddr{7, 2, 6, 1, 3} { // sets 3,2,2,1,3
		l, _, _ := c.Insert(la)
		l.State = Shared
	}
	for _, la := range []LineAddr{7, 6, 1, 7, 6} {
		c.MarkTx(c.Peek(la), false)
	}
	c.MarkTx(c.Peek(1), true) // read then written: one entry, now dirty
	want := []LineAddr{1, 6, 7}
	if got := c.TxLines(); !sameAddrs(got, want) || !sameAddrs(got, sweepTx(c)) {
		t.Fatalf("TxLines = %v, sweep = %v, want %v", got, sweepTx(c), want)
	}
	var visited []LineAddr
	c.ForEachTx(func(l *Line) { visited = append(visited, l.Tag) })
	if !sameAddrs(visited, want) {
		t.Fatalf("ForEachTx visited %v, want %v", visited, want)
	}
	if !c.Peek(1).TxDirty || c.Peek(6).TxDirty {
		t.Fatal("TxDirty not tracked per line")
	}
	if n := c.DropTxLines(); n != 3 {
		t.Fatalf("dropped %d, want 3", n)
	}
	if got := c.TxLines(); len(got) != 0 {
		t.Fatalf("TxLines after drop = %v", got)
	}
	if c.Peek(2) == nil || c.Peek(3) == nil {
		t.Fatal("non-tx lines dropped")
	}
}

// TestTxSetEvictedThenRefilled covers a marked way that loses its
// line: refilled by a non-transactional line it must not be visited,
// marked again it must be visited once, and a commit in between must
// not leave a mark that leaks into the next transaction.
func TestTxSetEvictedThenRefilled(t *testing.T) {
	c := New(2, 1)
	a, _, _ := c.Insert(4)
	a.State = Modified
	c.MarkTx(a, true)
	// Forced eviction of the only (transactional) way, refilled by a
	// plain line.
	b, victim, ev := c.Insert(6)
	if !ev || !victim.Tx || b != a {
		t.Fatalf("expected the tx way to be evicted and reused (ev=%v victim=%+v)", ev, victim)
	}
	b.State = Shared
	if got := c.TxLines(); len(got) != 0 || len(sweepTx(c)) != 0 {
		t.Fatalf("stale mark visited: TxLines = %v", got)
	}
	// Marked again: visited once.
	c.MarkTx(b, false)
	if got := c.TxLines(); !sameAddrs(got, []LineAddr{6}) {
		t.Fatalf("TxLines = %v, want [6]", got)
	}
	// Invalidated while marked, then refilled unmarked.
	c.Invalidate(6)
	d, _, _ := c.Insert(8)
	d.State = Shared
	if got := c.TxLines(); len(got) != 0 {
		t.Fatalf("TxLines after invalidate+refill = %v", got)
	}
	c.ClearTxBits()
	c.MarkTx(d, false)
	c.ClearTxBits()
	if d.Tx || len(c.TxLines()) != 0 {
		t.Fatal("ClearTxBits left a transactional line")
	}
}

// TestTxSetMatchesSweep drives random insert/mark/invalidate/commit/
// abort traffic over a geometry wider than one mask word and checks
// the remembered footprint against the full sweep after every step.
func TestTxSetMatchesSweep(t *testing.T) {
	r := rng.New(11)
	c := New(32, 4)
	for step := 0; step < 20000; step++ {
		la := LineAddr(r.Intn(512))
		switch r.Intn(8) {
		case 0, 1, 2:
			l, _, _ := c.Insert(la)
			l.State = Shared
		case 3, 4, 5:
			if l := c.Peek(la); l != nil {
				c.MarkTx(l, r.Intn(2) == 0)
			}
		case 6:
			c.Invalidate(la)
		case 7:
			want := len(sweepTx(c))
			if r.Intn(2) == 0 {
				c.ClearTxBits()
			} else if n := c.DropTxLines(); n != want {
				t.Fatalf("step %d: dropped %d, sweep had %d", step, n, want)
			}
			if left := sweepTx(c); len(left) != 0 {
				t.Fatalf("step %d: tx lines survived: %v", step, left)
			}
		}
		if got, want := c.TxLines(), sweepTx(c); !sameAddrs(got, want) {
			t.Fatalf("step %d: TxLines = %v, sweep = %v", step, got, want)
		}
	}
}

func TestMarkTxForeignLinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MarkTx accepted a line of another cache")
		}
	}()
	a, b := New(2, 2), New(2, 2)
	l, _, _ := a.Insert(1)
	l.State = Shared
	b.MarkTx(l, false)
}

func TestSetIsolation(t *testing.T) {
	// Lines mapping to different sets never evict each other.
	c := New(4, 1)
	for la := LineAddr(0); la < 4; la++ {
		l, _, ev := c.Insert(la)
		l.State = Shared
		if ev {
			t.Fatalf("insert %d evicted despite distinct sets", la)
		}
	}
	for la := LineAddr(0); la < 4; la++ {
		if c.Peek(la) == nil {
			t.Fatalf("line %d missing", la)
		}
	}
}

// TestCacheInvariantProperty drives random insert/lookup/invalidate
// traffic and checks structural invariants: no duplicate tags within
// a set, valid lines only where inserted.
func TestCacheInvariantProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		c := New(8, 4)
		live := map[LineAddr]bool{}
		for step := 0; step < 2000; step++ {
			la := LineAddr(r.Intn(64))
			switch r.Intn(3) {
			case 0:
				l, victim, ev := c.Insert(la)
				l.State = Shared
				if ev {
					delete(live, victim.Tag)
				}
				live[la] = true
			case 1:
				got := c.Lookup(la)
				if live[la] != (got != nil) {
					return false
				}
			case 2:
				_, ok := c.Invalidate(la)
				if live[la] != ok {
					return false
				}
				delete(live, la)
			}
		}
		// No duplicate tags among valid lines.
		seen := map[LineAddr]int{}
		c.ForEach(func(l *Line) { seen[l.Tag]++ })
		for tag, n := range seen {
			if n > 1 {
				t.Logf("tag %d appears %d times", tag, n)
				return false
			}
			if !live[tag] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(64, 8)
	for la := LineAddr(0); la < 64; la++ {
		l, _, _ := c.Insert(la)
		l.State = Shared
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(LineAddr(i % 64))
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := New(16, 4)
	for i := 0; i < b.N; i++ {
		l, _, _ := c.Insert(LineAddr(i % 1024))
		l.State = Shared
	}
}
