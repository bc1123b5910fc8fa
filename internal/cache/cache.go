// Package cache models a set-associative L1 data cache with LRU
// replacement, MSI line states, and the per-line transactional bit of
// the paper's Algorithm 1 ("each cache line has an additional bit...
// set if cache line is used by transaction").
//
// The cache stores actual data words so that end-to-end HTM tests can
// verify memory semantics, not just protocol bookkeeping.
package cache

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size in bytes.
const LineBytes = 64

// WordsPerLine is the number of 8-byte words in a line.
const WordsPerLine = LineBytes / 8

// LineAddr identifies a cache line (byte address >> 6).
type LineAddr uint64

// LineOf returns the line address containing byte address a.
func LineOf(byteAddr uint64) LineAddr { return LineAddr(byteAddr / LineBytes) }

// WordOf returns the word index of byte address a within its line.
func WordOf(byteAddr uint64) int { return int(byteAddr % LineBytes / 8) }

// State is an MSI coherence state.
type State uint8

const (
	// Invalid: the line holds no valid data.
	Invalid State = iota
	// Shared: read-only copy, possibly replicated in other caches.
	Shared
	// Modified: exclusive, writable, dirty with respect to memory.
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Line is one cache line.
type Line struct {
	Tag   LineAddr
	State State
	// Tx marks the line as transactional (read or written inside the
	// current transaction). Evicting or invalidating a Tx line aborts
	// the transaction. Set it through Cache.MarkTx, which is what lets
	// commit and abort find the line again without a sweep.
	Tx bool
	// TxDirty marks lines speculatively written by the current
	// transaction; their data must be discarded on abort.
	TxDirty bool
	// Pending marks a line allocated by Insert that is awaiting its
	// data fill; pending lines are never chosen as victims.
	Pending bool
	Data    [WordsPerLine]uint64
	lru     uint64
}

// Valid reports whether the line holds data.
func (l *Line) Valid() bool { return l.State != Invalid }

// Cache is a set-associative cache. Not safe for concurrent use; in
// the simulator each core owns one and all access is single-threaded
// through the event kernel.
type Cache struct {
	sets, ways int
	lines      []Line
	tick       uint64

	// txMarked has bit i set when lines[i] was marked transactional
	// since the last ClearTxBits/DropTxLines: the footprint commit and
	// abort visit instead of every line. A bit can outlive its line's
	// Tx flag (the way was evicted or invalidated, perhaps refilled),
	// so visitors re-check the flag; walking bits in index order is
	// walking ForEach's order.
	txMarked []uint64

	// Stats counters.
	Hits, Misses, Evictions uint64
}

// New creates a cache with the given geometry. sets must be a power
// of two.
func New(sets, ways int) *Cache {
	if sets <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	if sets&(sets-1) != 0 {
		panic("cache: sets must be a power of two")
	}
	n := sets * ways
	return &Cache{sets: sets, ways: ways, lines: make([]Line, n), txMarked: make([]uint64, (n+63)/64)}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// setBase returns the index in lines of the first way of la's set.
func (c *Cache) setBase(la LineAddr) int { return int(uint64(la)&uint64(c.sets-1)) * c.ways }

func (c *Cache) setOf(la LineAddr) []Line {
	b := c.setBase(la)
	return c.lines[b : b+c.ways]
}

// Lookup returns the valid line holding la, updating LRU and hit/miss
// counters. It returns nil on miss.
func (c *Cache) Lookup(la LineAddr) *Line {
	set := c.setOf(la)
	for i := range set {
		if set[i].Valid() && set[i].Tag == la {
			c.tick++
			set[i].lru = c.tick
			c.Hits++
			return &set[i]
		}
	}
	c.Misses++
	return nil
}

// Peek returns the valid line holding la without touching LRU or
// counters, or nil.
func (c *Cache) Peek(la LineAddr) *Line {
	set := c.setOf(la)
	for i := range set {
		if set[i].Valid() && set[i].Tag == la {
			return &set[i]
		}
	}
	return nil
}

// FindPending returns the pending (fill-in-flight) line allocated for
// la, or nil.
func (c *Cache) FindPending(la LineAddr) *Line {
	set := c.setOf(la)
	for i := range set {
		if set[i].Pending && set[i].Tag == la {
			return &set[i]
		}
	}
	return nil
}

// Insert allocates a line for la and returns it along with the
// evicted victim (valid only when evicted is true). The caller is
// responsible for writeback/abort handling of the victim. If la is
// already present, the existing line is returned with evicted=false.
//
// Victim preference: an Invalid way if any, otherwise the true LRU
// among non-Tx lines, otherwise the LRU Tx line (whose eviction the
// HTM layer must translate into an abort, per Algorithm 1 line 4).
func (c *Cache) Insert(la LineAddr) (line *Line, victim Line, evicted bool) {
	if l := c.Peek(la); l != nil {
		c.tick++
		l.lru = c.tick
		return l, Line{}, false
	}
	if l := c.FindPending(la); l != nil {
		c.tick++
		l.lru = c.tick
		return l, Line{}, false
	}
	set := c.setOf(la)
	var pick *Line
	// Pass 1: invalid, non-pending way.
	for i := range set {
		if !set[i].Valid() && !set[i].Pending {
			pick = &set[i]
			break
		}
	}
	// Pass 2: LRU among non-transactional, non-pending lines.
	if pick == nil {
		for i := range set {
			if !set[i].Tx && !set[i].Pending && (pick == nil || set[i].lru < pick.lru) {
				pick = &set[i]
			}
		}
	}
	// Pass 3: LRU among non-pending lines (forced Tx eviction).
	if pick == nil {
		for i := range set {
			if !set[i].Pending && (pick == nil || set[i].lru < pick.lru) {
				pick = &set[i]
			}
		}
	}
	if pick == nil {
		panic("cache: all ways pending; caller exceeded outstanding-miss budget")
	}
	if pick.Valid() {
		victim = *pick
		evicted = true
		c.Evictions++
	}
	c.tick++
	*pick = Line{Tag: la, State: Invalid, lru: c.tick}
	return pick, victim, evicted
}

// Invalidate drops the line holding la if present, returning its
// previous contents.
func (c *Cache) Invalidate(la LineAddr) (old Line, ok bool) {
	if l := c.Peek(la); l != nil {
		old = *l
		*l = Line{}
		return old, true
	}
	return Line{}, false
}

// ForEach calls fn on every valid line.
func (c *Cache) ForEach(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].Valid() {
			fn(&c.lines[i])
		}
	}
}

// MarkTx sets the transactional bit on l, a line of this cache, and
// TxDirty too when the access is a speculative write.
func (c *Cache) MarkTx(l *Line, dirty bool) {
	if dirty {
		l.TxDirty = true
	}
	if l.Tx {
		return
	}
	l.Tx = true
	b := c.setBase(l.Tag)
	for i := b; i < b+c.ways; i++ {
		if &c.lines[i] == l {
			c.txMarked[i/64] |= 1 << uint(i%64)
			return
		}
	}
	panic("cache: MarkTx on a line of another cache")
}

// ForEachTx calls fn on every transactional line, in the order
// ForEach would reach them.
func (c *Cache) ForEachTx(fn func(*Line)) {
	for w, word := range c.txMarked {
		for ; word != 0; word &= word - 1 {
			if l := &c.lines[w*64+bits.TrailingZeros64(word)]; l.Tx {
				fn(l)
			}
		}
	}
}

// TxLines returns the addresses of all transactional lines.
func (c *Cache) TxLines() []LineAddr {
	var out []LineAddr
	c.ForEachTx(func(l *Line) { out = append(out, l.Tag) })
	return out
}

// ClearTxBits ends a transaction by clearing Tx/TxDirty on all lines
// (the commit path of Algorithm 1).
func (c *Cache) ClearTxBits() {
	c.ForEachTx(func(l *Line) {
		l.Tx = false
		l.TxDirty = false
	})
	clear(c.txMarked)
}

// DropTxLines invalidates all transactional lines (the abort path of
// Algorithm 1) and returns how many there were.
func (c *Cache) DropTxLines() int {
	n := 0
	c.ForEachTx(func(l *Line) {
		*l = Line{}
		n++
	})
	clear(c.txMarked)
	return n
}
