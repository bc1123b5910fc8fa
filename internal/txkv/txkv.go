// Package txkv is a transactional key-value store layered on the
// internal/stm word arena — the repo's first keyed workload surface.
// The paper (and ROADMAP) frame conflict resolution as the thing that
// decides real transactional throughput; txkv converts the raw
// word-indexed arena into something an end user could send traffic
// to: keys, multi-key documents, counters, and a contended secondary
// index, all executed as ordinary stm transactions so the conflict
// policy, grace periods, commit clock and group-commit batching
// apply unchanged.
//
// # Word layout
//
// A Store with capacity C buckets (a power of two), I index classes
// and S = 16 size stripes owns one stm arena of 3C+I+S words:
//
//	[0, C)        bucket key words: 0 = empty, ^0 = tombstone,
//	              otherwise userKey+1
//	[C, 2C)       bucket value words
//	[2C, 3C)      index links: next bucket+1 in this bucket's
//	              index-class chain (0 = end)
//	[3C, 3C+I)    index heads: first bucket+1 per value class
//	[3C+I, +S)    striped occupancy counters (live keys only)
//
// Every operation's footprint flows through tx.Load, tx.LoadForUpdate
// and tx.Store, so a put is a handful of word reads (the probe path)
// plus a few writes — exactly the kind of small-footprint transaction
// the paper's cost model prices. A word an op reads and then always
// writes (a value it updates, an index head it pushes onto, a size
// stripe) is read with LoadForUpdate: on an eager runtime the op owns
// it from that read on, so two ops racing for it meet at the second
// one's access, where the conflict policy prices a grace period,
// instead of the first failing validation at commit.
//
// # Secondary index
//
// The index groups buckets by value class (value & (classes-1)) into
// per-class singly linked lists threaded through the link words. It
// is deliberately *structural* and non-commutative: inserts push at
// the head, deletes unlink mid-chain, and value updates that change
// class relink the bucket — so two racing updates that lose isolation
// leave a torn chain (a cycle, a shared tail, or an orphan) that
// CheckInvariants detects, where a commutative aggregate would
// silently re-add up. This is the serving-stack analogue of the
// scenario invariants.
//
// # Escrow counters
//
// Config.EscrowCounters switches the index to *key* classes
// (key & (classes-1)): a live bucket's class is then immutable, so
// value updates never touch the chains and an add can record its
// increment on the value word as a blind commutative delta (tx.Add)
// that the group-commit combiner folds under
// stm.Policy.FoldCommutative — colliding hot-counter bumps stop
// aborting each other. The trade: the index no longer trips on a
// torn value (only on torn structure), and a blind add cannot report
// the new value. See internal/stm for the folding semantics.
//
// # Wire contract (POST /v1/batch)
//
// A request is {"ops":[{"op":K,"key":N,"val":N,"fields":N},...]} and
// the reply {"results":[{"val":N,"vals":[N,...],"found":true,
// "err":S},...]} plus a newline: the JSON encoding/json writes for
// batchRequest and batchResponse, members in that order, zero-valued
// val/vals/found/err/fields left out, a nil slice as null. Both ends
// write it with append encoders (wire.go) whose output is byte for
// byte encoding/json's — the golden fixtures under testdata/ were
// generated by encoding/json before the encoders existed — and a
// string holding anything but printable ASCII outside `"\<>&` is
// handed to encoding/json to escape.
//
// Reading has a fast path and a decline rule. The fast path is a
// single pass that accepts only the canonical shape: the one top-level
// member, exact lower-case keys, each at most once and nothing else,
// strings of unescaped ASCII (an op kind must be one of the six Kind*
// constants, and is interned), integers as unsigned decimals without
// sign, leading zero, fraction or exponent that fit their field, true
// or false, no null anywhere, at most maxBatchOps ops, and only
// whitespace after the closing brace. For such a body it returns
// exactly the value encoding/json would. For anything else it answers
// "don't know" and the same bytes go through a json.Decoder as they
// always did, so case-folded keys, unknown members, escapes, data
// after the value and every error text remain encoding/json's
// behaviour; the choice is made from the input bytes alone, and the
// fuzz targets in fuzz_test.go hold the two paths to one answer.
//
// Status codes: 400 for a body encoding/json rejects, 413 for a body
// over 8 MiB or a batch over maxBatchOps ops (ErrBatchTooLarge) —
// requests no retry can fix — and 503 only for a server that is
// closing (ErrServerClosed) or a request whose context ended before a
// worker token was free. Server.handleBatch and HTTPClient.Do work out
// of one pooled scratch per request (body, ops, results, encoded
// output); nothing returned to a caller points into it.
package txkv

import (
	"errors"
	"fmt"

	"txconflict/internal/stm"
)

// ErrFull is the user-level (non-retrying) outcome of inserting into
// a map whose probe path has no free bucket.
var ErrFull = errors.New("txkv: map full")

// tombstone marks a bucket whose key was deleted; probes continue
// past it, inserts may reuse it.
const tombstone = ^uint64(0)

// sizeStripes is the number of striped occupancy words (a power of
// two); striping keeps inserts from serializing on a single counter
// word.
const sizeStripes = 16

// Config sizes a Store.
type Config struct {
	// Capacity is the bucket count, rounded up to a power of two.
	// The map holds at most Capacity live keys; inserts beyond that
	// return ErrFull. 0 defaults to 1024.
	Capacity int
	// IndexClasses is the number of secondary-index value classes
	// (power of two, default 64). A value belongs to class
	// value & (IndexClasses-1).
	IndexClasses int
	// EscrowCounters classes the secondary index by key instead of by
	// value (see the package comment): value updates stop relinking,
	// and an add on an existing key becomes a blind commutative delta
	// the STM combiner can fold (stm.Policy.FoldCommutative; KindAdd
	// says what such an add returns).
	EscrowCounters bool
	// STM configures the underlying runtime (conflict policy, lazy
	// vs eager locking, CommitBatch, tracing, metrics...).
	STM stm.Config
}

// Store is the transactional key-value store. Its one entry point is a
// batch of Ops (ApplyBatch, ApplyBatchInto): every op runs as its own
// stm transaction, safe for concurrent use. Len, Range and
// CheckInvariants read quiescent state and are meant for post-run
// verification.
type Store struct {
	rt      *stm.Runtime
	cap     int // buckets (power of two)
	mask    uint64
	classes int
	escrow  bool // key-classed index; add records blind deltas
}

// New builds a store and its STM arena.
func New(cfg Config) *Store {
	c := ceilPow2(cfg.Capacity, 1024)
	classes := ceilPow2(cfg.IndexClasses, 64)
	s := &Store{
		cap:     c,
		mask:    uint64(c - 1),
		classes: classes,
		escrow:  cfg.EscrowCounters,
	}
	s.rt = stm.New(3*c+classes+sizeStripes, cfg.STM)
	return s
}

func ceilPow2(n, def int) int {
	if n <= 0 {
		n = def
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Arena word regions (see the package comment).
func (s *Store) keyWord(b int) int   { return b }
func (s *Store) valWord(b int) int   { return s.cap + b }
func (s *Store) linkWord(b int) int  { return 2*s.cap + b }
func (s *Store) headWord(c int) int  { return 3*s.cap + c }
func (s *Store) sizeWord(st int) int { return 3*s.cap + s.classes + st }

// class maps a value to its secondary-index class.
func (s *Store) class(val uint64) int { return int(val) & (s.classes - 1) }

// bucketClass maps a bucket holding (key, val) to its index class:
// the value class normally, the key class in escrow mode — immutable
// for a live bucket, which is what lets value updates skip the chains.
func (s *Store) bucketClass(key, val uint64) int {
	if s.escrow {
		return int(key) & (s.classes - 1)
	}
	return s.class(val)
}

// hash is the splitmix64 finalizer — full-avalanche, so sequential
// user keys spread across buckets (and size stripes).
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// Runtime exposes the underlying STM runtime (stats, config).
func (s *Store) Runtime() *stm.Runtime { return s.rt }

// Capacity returns the bucket count.
func (s *Store) Capacity() int { return s.cap }

// probe walks key's probe path inside tx. It returns the bucket
// holding key (found=true), or found=false with free set to the
// bucket an insert should use (-1 when the path is exhausted: map
// full). The first tombstone on the path is remembered for reuse,
// but the walk continues to the first empty word so a reused slot
// can never shadow a live copy of the same key deeper in the path.
func (s *Store) probe(tx *stm.Tx, key uint64) (bucket int, found bool, free int) {
	h := int(hash(key) & s.mask)
	free = -1
	for i := 0; i < s.cap; i++ {
		b := (h + i) & int(s.mask)
		kw := tx.Load(s.keyWord(b))
		switch kw {
		case 0:
			if free < 0 {
				free = b
			}
			return 0, false, free
		case tombstone:
			if free < 0 {
				free = b
			}
		case key + 1:
			return b, true, free
		}
	}
	return 0, false, free
}

// indexPush links bucket b (holding key with value val) at the head
// of its class chain.
func (s *Store) indexPush(tx *stm.Tx, b int, key, val uint64) {
	c := s.bucketClass(key, val)
	tx.Store(s.linkWord(b), tx.LoadForUpdate(s.headWord(c)))
	tx.Store(s.headWord(c), uint64(b)+1)
}

// indexUnlink removes bucket b from the chain of the class it was
// indexed under (key's class in escrow mode, val's otherwise). The
// chain must contain b — a miss means the index lost an insert, which
// the transaction turns into a panic rather than silent corruption.
// The head and the links the walk passes are plain reads, since
// whether one is written is known only once it is read; b's own link
// is always written, so it is read for update.
func (s *Store) indexUnlink(tx *stm.Tx, b int, key, val uint64) {
	c := s.bucketClass(key, val)
	at := s.headWord(c) // the word the walk stands on
	for steps := 0; steps <= s.cap; steps++ {
		cur := tx.Load(at)
		if cur == uint64(b)+1 {
			tx.Store(at, tx.LoadForUpdate(s.linkWord(b)))
			tx.Store(s.linkWord(b), 0)
			return
		}
		if cur == 0 {
			break
		}
		at = s.linkWord(int(cur) - 1)
	}
	panic(fmt.Sprintf("txkv: bucket %d missing from index class %d", b, c))
}

// checkKey rejects the one unrepresentable key (stored keys are
// userKey+1, and ^0 is the tombstone).
func checkKey(key uint64) error {
	if key >= tombstone-1 {
		return fmt.Errorf("txkv: key %#x out of range", key)
	}
	return nil
}

// checkDoc rejects a document no store of this size can hold, before
// anything is sized or looped by a field count from the wire, then a
// document whose keys base, ..., base+fields-1 wrap past ^0 or reach
// the keys checkKey rejects. fields must be positive.
func (s *Store) checkDoc(base uint64, fields int) error {
	if fields > s.cap {
		return fmt.Errorf("txkv: document of %d fields exceeds the store's %d buckets", fields, s.cap)
	}
	last := base + uint64(fields) - 1
	if last < base {
		return fmt.Errorf("txkv: document at key %#x with %d fields wraps the key space", base, fields)
	}
	return checkKey(last)
}

// put is the in-transaction upsert shared by runPut and runUpdateDoc.
func (s *Store) put(tx *stm.Tx, key, val uint64) error {
	b, found, free := s.probe(tx, key)
	if !found {
		return s.insert(tx, free, key, val)
	}
	s.update(tx, b, key, tx.LoadForUpdate(s.valWord(b)), val)
	return nil
}

// update sets the value of key's bucket b from old, which the caller
// read for update, to val, relinking b when its index class changes.
func (s *Store) update(tx *stm.Tx, b int, key, old, val uint64) {
	if s.bucketClass(key, old) != s.bucketClass(key, val) {
		s.indexUnlink(tx, b, key, old)
		s.indexPush(tx, b, key, val)
	}
	tx.Store(s.valWord(b), val)
}

// insert stores key = val in the free bucket a probe returned (-1: the
// probe path is full).
func (s *Store) insert(tx *stm.Tx, free int, key, val uint64) error {
	if free < 0 {
		return ErrFull
	}
	tx.Store(s.keyWord(free), key+1)
	tx.Store(s.valWord(free), val)
	s.indexPush(tx, free, key, val)
	st := s.sizeWord(int(hash(key)) & (sizeStripes - 1))
	tx.Store(st, tx.LoadForUpdate(st)+1)
	return nil
}

// get is the in-transaction lookup.
func (s *Store) get(tx *stm.Tx, key uint64) (uint64, bool) {
	b, found, _ := s.probe(tx, key)
	if !found {
		return 0, false
	}
	return tx.Load(s.valWord(b)), true
}

// del is the in-transaction delete.
func (s *Store) del(tx *stm.Tx, key uint64) bool {
	b, found, _ := s.probe(tx, key)
	if !found {
		return false
	}
	s.indexUnlink(tx, b, key, tx.LoadForUpdate(s.valWord(b)))
	tx.Store(s.keyWord(b), tombstone)
	tx.Store(s.valWord(b), 0)
	st := s.sizeWord(int(hash(key)) & (sizeStripes - 1))
	tx.Store(st, tx.LoadForUpdate(st)-1)
	return true
}

// The run* methods are the one transactional body per op kind: each
// runs its op as one atomic block on the caller's stm.Worker handle.
// Store.ApplyBatchInto calls them, through applyInto, for a whole
// batch on one handle.

func (s *Store) runPut(w *stm.Worker, key, val uint64) error {
	if err := checkKey(key); err != nil {
		return err
	}
	return w.Atomic(func(tx *stm.Tx) error {
		return s.put(tx, key, val)
	})
}

func (s *Store) runGet(w *stm.Worker, key uint64) (val uint64, ok bool, err error) {
	if err := checkKey(key); err != nil {
		return 0, false, err
	}
	err = w.Atomic(func(tx *stm.Tx) error {
		val, ok = s.get(tx, key)
		return nil
	})
	return val, ok, err
}

func (s *Store) runDelete(w *stm.Worker, key uint64) (deleted bool, err error) {
	if err := checkKey(key); err != nil {
		return false, err
	}
	err = w.Atomic(func(tx *stm.Tx) error {
		deleted = s.del(tx, key)
		return nil
	})
	return deleted, err
}

// runAdd increments key's value by delta, inserting delta when the
// key is absent (the counter type: a keyed read-modify-write whose
// conflicts land on the value word and, when the class changes, on
// the index chains), and returns the new value — 0 for a blind
// increment in escrow mode (see KindAdd). One probe serves both halves.
func (s *Store) runAdd(w *stm.Worker, key, delta uint64) (newVal uint64, err error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	err = w.Atomic(func(tx *stm.Tx) error {
		newVal = 0 // the closure re-runs on abort
		b, found, free := s.probe(tx, key)
		switch {
		case !found:
			newVal = delta
			return s.insert(tx, free, key, delta)
		case s.escrow:
			// The probe path read the key words (validated as usual),
			// but the value word carries only a delta: no read entry,
			// so colliding increments on a hot counter commute.
			tx.Add(s.valWord(b), delta)
		default:
			old := tx.LoadForUpdate(s.valWord(b))
			newVal = old + delta
			s.update(tx, b, key, old, newVal)
		}
		return nil
	})
	return newVal, err
}

// runUpdateDoc writes val to the document's fields — the keys base,
// base+1, ..., base+fields-1 — in one transaction, so a reader can
// never observe a half-updated document.
func (s *Store) runUpdateDoc(w *stm.Worker, base uint64, fields int, val uint64) error {
	if err := s.checkDoc(base, fields); err != nil {
		return err
	}
	return w.Atomic(func(tx *stm.Tx) error {
		for f := 0; f < fields; f++ {
			if err := s.put(tx, base+uint64(f), val); err != nil {
				return err
			}
		}
		return nil
	})
}

// runReadDoc reads the document's fields in one transaction (absent
// fields read as 0 — a document that was never written is all-zero,
// still satisfying the all-fields-equal visibility invariant).
func (s *Store) runReadDoc(w *stm.Worker, base uint64, fields int) ([]uint64, error) {
	if err := s.checkDoc(base, fields); err != nil {
		return nil, err
	}
	vals := make([]uint64, fields)
	err := w.Atomic(func(tx *stm.Tx) error {
		for f := 0; f < fields; f++ {
			vals[f], _ = s.get(tx, base+uint64(f))
		}
		return nil
	})
	return vals, err
}

// Len returns the committed live-key count (the sum of the size
// stripes). Quiescent-state accessor.
func (s *Store) Len() int {
	var n uint64
	for st := 0; st < sizeStripes; st++ {
		n += s.rt.ReadCommitted(s.sizeWord(st))
	}
	return int(n)
}

// Range calls fn for every committed live key. Quiescent-state
// accessor (it reads bucket words non-transactionally).
func (s *Store) Range(fn func(key, val uint64)) {
	for b := 0; b < s.cap; b++ {
		kw := s.rt.ReadCommitted(s.keyWord(b))
		if kw == 0 || kw == tombstone {
			continue
		}
		fn(kw-1, s.rt.ReadCommitted(s.valWord(b)))
	}
}

// CheckInvariants verifies the store's structural invariants against
// the committed (quiescent) arena:
//
//  1. occupancy: the striped size counters sum to the number of live
//     buckets;
//  2. reachability: every live bucket hangs off exactly one index
//     chain, and the chains contain nothing else (no orphans, no
//     double links, no cycles);
//  3. class consistency: a bucket in class c holds a value (a key, in
//     escrow mode) of class c;
//  4. probe integrity: every live key is found by its own probe path.
//
// Any violation is a serializability bug in the runtime (or a txkv
// logic bug), not a data race in the checker — call it only after
// all workers have stopped.
func (s *Store) CheckInvariants() error {
	live := 0
	for b := 0; b < s.cap; b++ {
		kw := s.rt.ReadCommitted(s.keyWord(b))
		if kw == 0 || kw == tombstone {
			continue
		}
		live++
	}
	if got := s.Len(); got != live {
		return fmt.Errorf("txkv: size stripes sum to %d, scan found %d live keys", got, live)
	}
	seen := make([]bool, s.cap)
	visited := 0
	for c := 0; c < s.classes; c++ {
		cur := s.rt.ReadCommitted(s.headWord(c))
		for steps := 0; cur != 0; steps++ {
			if steps > s.cap {
				return fmt.Errorf("txkv: index class %d chain exceeds capacity (cycle)", c)
			}
			b := int(cur) - 1
			if b < 0 || b >= s.cap {
				return fmt.Errorf("txkv: index class %d links out-of-range bucket %d", c, b)
			}
			if seen[b] {
				return fmt.Errorf("txkv: bucket %d linked twice in the index", b)
			}
			seen[b] = true
			visited++
			kw := s.rt.ReadCommitted(s.keyWord(b))
			if kw == 0 || kw == tombstone {
				return fmt.Errorf("txkv: index class %d links dead bucket %d", c, b)
			}
			val := s.rt.ReadCommitted(s.valWord(b))
			if got := s.bucketClass(kw-1, val); got != c {
				return fmt.Errorf("txkv: bucket %d (key %d, value %d, class %d) linked under class %d",
					b, kw-1, val, got, c)
			}
			cur = s.rt.ReadCommitted(s.linkWord(b))
		}
	}
	if visited != live {
		return fmt.Errorf("txkv: index chains reach %d buckets, %d are live", visited, live)
	}
	// Probe integrity: every live key must find itself.
	for b := 0; b < s.cap; b++ {
		kw := s.rt.ReadCommitted(s.keyWord(b))
		if kw == 0 || kw == tombstone {
			continue
		}
		if !s.committedFinds(kw-1, b) {
			return fmt.Errorf("txkv: key %d at bucket %d unreachable by its probe path", kw-1, b)
		}
	}
	return nil
}

// committedFinds reports whether key's committed probe path reaches
// bucket want before an empty word.
func (s *Store) committedFinds(key uint64, want int) bool {
	h := int(hash(key) & s.mask)
	for i := 0; i < s.cap; i++ {
		b := (h + i) & int(s.mask)
		kw := s.rt.ReadCommitted(s.keyWord(b))
		if kw == 0 {
			return false
		}
		if b == want {
			return kw == key+1
		}
	}
	return false
}
