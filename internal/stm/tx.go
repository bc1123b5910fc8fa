package stm

import (
	"runtime"
	"sync/atomic"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
)

// Descriptor state: one atomic word packing (epoch << stateEpochShift
// | status). Only the descriptor's own goroutine advances the epoch
// (once per attempt, in reset); requestors flip the status of exactly
// one attempt with a full-state CAS, so a kill can never land on a
// later attempt of a reused descriptor. The three batch outcomes are
// stamped by a group-commit combiner (batch.go) into descriptors
// queued at its shard; they are the only terminal statuses a waiter
// retires on, so a drained descriptor is stamped exactly once.
const (
	statusActive      uint64 = iota // running optimistically
	statusKilled                    // a requestor won the conflict
	statusNoReturn                  // committing, past the point of no return
	statusBatchDone                 // group commit: the combiner committed this write set
	statusBatchFail                 // group commit: validation/admission failed, retry
	statusBatchKilled               // group commit: drained while killed, retry as victim

	stateStatusMask uint64 = 7
	stateEpochShift        = 3
)

// txAbort is the panic value used to unwind an aborted transaction.
// The reason is the metrics taxonomy category — every unwind site
// states which kind of conflict killed the attempt, so the metrics
// plane and the trace layer attribute aborts without string parsing.
type txAbort struct{ reason metrics.AbortReason }

type readEntry struct {
	idx int
	ver uint64
}

// Tx is a transaction descriptor. It is reused across retries of the
// same atomic block and must not escape the transaction function;
// per-attempt identity lives in the state word's epoch.
type Tx struct {
	rt  *Runtime
	rng *rng.Rand
	// id is this descriptor's index in rt.descs, fixed for the life of
	// the runtime: what its locks carry in their owner field. freeNext
	// links it into the free list while no handle holds it.
	id       uint64
	freeNext atomic.Uint32

	// pol is the conflict policy this attempt runs under, latched
	// from the runtime's atomic policy slot once per attempt (reset):
	// a SetPolicy racing a running attempt never tears its view, and
	// every retry picks up the newest policy. batched, latched with it,
	// says the attempt's commit is headed for the group-commit combiner:
	// a lazy runtime with the lane open and an attempt that is not
	// irrevocable (irrevocable is only set between attempts).
	pol     *Policy
	batched bool

	// state packs the attempt epoch and the status; see the const
	// block above. Read and CASed by requestors resolving conflicts
	// against this descriptor.
	state atomic.Uint64
	// irrevocable, startNanos and attempts are read by *other*
	// goroutines (requestors inspecting their receiver in decide),
	// hence atomic.
	irrevocable atomic.Bool
	startNanos  atomic.Int64
	attempts    atomic.Int32

	// rv is the read snapshot: a value the commit clock held at or
	// before the current attempt's first read, carried across attempts,
	// blocks and handles (0 on a fresh descriptor, so any committed
	// word extends on first contact). wv is the stamp this commit or
	// rollback drew (0 = none yet), folded into rv by adoptStamps.
	rv uint64
	wv uint64

	reads []readEntry

	// traced gates all instrumentation below it (Config.Trace != nil,
	// latched per Worker handle); tr accumulates the block's trace and
	// reuses its footprint buffers across reused descriptors.
	traced bool
	tr     TxTrace

	// mx is this worker's metrics shard, latched per Worker handle.
	// blockStart is the first attempt's start stamp, the base of the
	// committed-block latency observation; blockEnd is the stamp the
	// latest attempt ended at (where the handle's next block starts,
	// see Worker); lastAbort is the taxonomy reason of the most recent
	// aborted attempt.
	mx         *metrics.Shard
	blockStart int64
	blockEnd   int64
	lastAbort  metrics.AbortReason

	// The observation ledger: the committed blocks mx has not been told
	// about yet, block i's committing attempt having taken ledAttempt[i]
	// ns and the whole block ledBlock[i]. Owner-private plain words — a
	// commit appends and returns — folded into mx by flush (see Worker
	// for when). phaseTick counts this descriptor's write commits for
	// the 1-in-N phase-timer sampler.
	ledN       int
	phaseTick  uint64
	ledAttempt [ledgerCap]int64
	ledBlock   [ledgerCap]int64

	// writeIdx is the attempt's write set, the commit pipeline's plan:
	// lazy buffers the values in writeVals; eager locked each word at its
	// first Store and wrote in place, undo[i] holding writeIdx[i]'s
	// pre-image.
	writeIdx  []int
	writeVals map[int]uint64
	undo      []uint64
	// Commutative delta-writes (tx.Add under Policy.FoldCommutative
	// with the combiner lane open): blind `word += delta` intents with
	// no read entry, kept apart from the plain write set so the
	// combiner can fold them. addVals is allocated on first use and
	// reused with the descriptor. foldedN is written by the
	// combiner (before the outcome stamp, which orders it) with the
	// number of this member's deltas that were folded.
	addIdx  []int
	addVals map[int]uint64
	foldedN int

	// batchNext links the descriptor into its lane's queue while it
	// waits for a combiner (batch.go); r is its roster when it combines,
	// allocated at its first lane round.
	batchNext atomic.Pointer[Tx]
	r         *roster

	// waiters counts the requestors currently waiting on me. They write
	// it, so it sits a full line away from everything an owner — this
	// descriptor's or the next one's in memory — reads on its hot path.
	_       [cacheLine]byte
	waiters atomic.Int32
	_       [cacheLine - 4]byte
}

// ledgerCap is how many committed blocks a descriptor holds back from
// the metrics plane at most: a txkv batch.
const ledgerCap = 16

// flush folds the ledger into the metrics shard. Called wherever the
// owner is about to wait or unwind, so what a snapshot misses is only
// blocks of a handle that is running right now.
func (tx *Tx) flush() {
	if tx.ledN > 0 {
		tx.mx.ObserveCommits(tx.ledAttempt[:tx.ledN], tx.ledBlock[:tx.ledN])
		tx.ledN = 0
	}
}

// samplePhases reports whether this commit runs the phase timers: true
// on every SampleN-th call on this descriptor.
func (tx *Tx) samplePhases() bool {
	tx.phaseTick++
	return tx.phaseTick&tx.rt.phaseMask == 0
}

// epoch returns the current attempt epoch.
func (tx *Tx) epoch() uint64 { return tx.state.Load() >> stateEpochShift }

// killed reports whether the current attempt was killed by a
// requestor. Irrevocable transactions ignore kills (they cannot be
// victims).
func (tx *Tx) killed() bool {
	return !tx.irrevocable.Load() && tx.state.Load()&stateStatusMask == statusKilled
}

// Attempts reports how many times the current atomic block aborted.
func (tx *Tx) Attempts() int { return int(tx.attempts.Load()) }

// Atomic runs fn transactionally, retrying on conflict; it returns
// fn's error for user-level aborts. fn must confine all shared access
// to tx.Load/tx.Store and must be safe to re-execute.
//
// Descriptors are reused across Atomic calls. This is safe *because*
// of the epoch protocol: a requestor that resolved a lock word's id to
// a since-recycled descriptor can only act on it through a full-state
// CAS against the (epoch, status) it captured, and that epoch is gone
// forever once the descriptor is reset — the state word survives
// recycling and its epoch only grows.
func (rt *Runtime) Atomic(r *rng.Rand, fn func(tx *Tx) error) error {
	return rt.AtomicWorker(-1, r, fn)
}

// AtomicWorker is Atomic with a caller-supplied worker id, recorded
// in the block's TxTrace when tracing is enabled (Config.Trace). The
// id has no semantic effect on execution; scenario.STMRunner passes
// its worker index so per-worker trace buffers stay contention-free.
// It is the one-shot form of a Worker handle: two clock reads, one
// free-list round trip.
func (rt *Runtime) AtomicWorker(worker int, r *rng.Rand, fn func(tx *Tx) error) error {
	w := rt.Worker(worker, r)
	err := w.Atomic(fn)
	w.Release()
	return err
}

// Worker is a handle for running atomic blocks back to back on one
// goroutine (a batch of keyed ops, say). It owns one descriptor for
// its whole life, and it chains stamps: block i+1's first attempt
// starts at the stamp block i ended at, so a block that commits first
// time reads the clock once, at its end. The attempt and commit
// observations of a chained block therefore include the few
// nanoseconds the caller spent between the two blocks — which is why
// a handle must not be held across think time, I/O or any other wait:
// open it, run the blocks, Release it.
//
// What is never chained: the first block of a handle and every retry
// read the clock afresh, so a stale stamp cannot outlive Release, and
// rollback or the wait for the irrevocable token never inflates an
// attempt's duration or the abort cost B a requestor prices against
// this descriptor's startNanos. A panic out of a block breaks the
// chain too.
//
// A live handle also holds observations back: a block that commits
// writes no shared counter, it notes its attempt and block durations in
// the descriptor's ledger, and the ledger reaches the metrics plane
// sixteen blocks at a time. It is let go of at Release, when full, and
// before the owner can wait or unwind: ahead of a grace wait, the
// combiner queue and the irrevocable token, on an aborted attempt, on a
// block that returns an error, and on a panic out of fn (so a handle
// leaked by a panic loses nothing). A snapshot therefore trails each
// running handle by at most sixteen committed blocks — in Commit and
// Attempt and so in the commits count, never in the arena — and by
// nothing across a wait, a retry or a Release; every block is still
// observed, with the stamps it ran at.
//
// A Worker is not safe for concurrent use, and its blocks must not
// nest.
type Worker struct {
	tx *Tx
	id int
	// chained reports that the previous block on this handle ran to
	// its end, so tx.blockEnd is the stamp the next block starts at.
	chained bool
}

// Worker opens a handle tagged with a worker id (see AtomicWorker); r
// must be the calling goroutine's own stream. The descriptor comes off
// the id's free list or, when that is empty, is made and given the next
// descriptor id; with all maxDescs ids taken the call yields until its
// list gets one back. So the table grows to the most handles ever open
// at once (per list), and a steady state allocates nothing.
func (rt *Runtime) Worker(id int, r *rng.Rand) Worker {
	free := &rt.free[id&(len(rt.free)-1)].head
	var tx *Tx
	for tx == nil {
		h := free.Load()
		if top := h & maxDescs; top == 0 {
			if tx = rt.newTx(); tx == nil {
				runtime.Gosched()
			}
		} else if d := (*rt.descs.Load())[top]; free.CompareAndSwap(h, (h>>16+1)<<16|uint64(d.freeNext.Load())) {
			tx = d
		}
	}
	tx.rng = r
	tx.mx = rt.metrics.Shard(id)
	tx.traced = rt.tracer != nil
	return Worker{tx: tx, id: id}
}

// newTx makes a descriptor and publishes it in the table under the
// next id, or returns nil when the id space is used up. Appending in
// place is safe: a reader indexes only below the length it loaded.
func (rt *Runtime) newTx() *Tx {
	rt.descMu.Lock()
	defer rt.descMu.Unlock()
	descs := *rt.descs.Load()
	if len(descs) > rt.descLimit {
		return nil
	}
	tx := &Tx{rt: rt, id: uint64(len(descs))}
	if rt.lazy {
		tx.writeVals = make(map[int]uint64, 8)
	}
	descs = append(descs, tx)
	rt.descs.Store(&descs)
	return tx
}

// Release hands the metrics plane what the handle still held back and
// returns its descriptor to its free list. The handle must not be used
// afterwards.
func (w *Worker) Release() {
	tx := w.tx
	w.tx = nil
	tx.flush()
	tx.rng = nil
	for free := &tx.rt.free[w.id&(len(tx.rt.free)-1)].head; ; {
		h := free.Load()
		tx.freeNext.Store(uint32(h & maxDescs))
		if free.CompareAndSwap(h, (h>>16+1)<<16|tx.id) {
			return
		}
	}
}

// Atomic runs fn as one atomic block on the handle's descriptor, with
// Runtime.Atomic's contract.
func (w *Worker) Atomic(fn func(tx *Tx) error) error {
	tx := w.tx
	if tx.attempts.Load() != 0 {
		tx.attempts.Store(0) // the previous block retried
	}
	if tx.traced {
		tx.beginTrace(w.id)
	}
	// The chain holds only from a block that ran to its end to the
	// first attempt of the next: it is broken here and re-made on
	// return, so a panic out of fn leaves it broken.
	start := tx.blockEnd
	if !w.chained {
		start = nanos()
	}
	w.chained = false
	tx.blockStart = start
	for {
		tx.reset(start)
		err, aborted := tx.attempt(fn)
		if !aborted {
			if tx.traced {
				tx.emitTrace(err == nil)
			}
			w.chained = true
			return err
		}
		tx.attempts.Add(1)
		if mr := tx.pol.MaxRetries; mr > 0 && int(tx.attempts.Load()) >= mr && !tx.irrevocable.Load() {
			// A wait, with the ledger empty: the aborted attempt flushed.
			tx.rt.fallback.Lock()
			tx.irrevocable.Store(true)
			tx.mx.Abort(metrics.AbortMaxRetries)
			if tx.traced {
				tx.tr.Irrevocable = true
			}
		}
		start = nanos()
	}
}

// reset opens a fresh attempt starting at the stamp now: a new epoch
// (so stale requestors from the previous attempt can neither kill us
// nor keep waiting on us), the current conflict policy, and cleared
// speculative state. The snapshot rv is kept (see "Arena layout").
func (tx *Tx) reset(now int64) {
	tx.pol = tx.rt.pol.Load()
	tx.batched = tx.rt.batch != nil && tx.pol.CommitBatch > 0 && !tx.irrevocable.Load()
	tx.state.Store((tx.epoch() + 1) << stateEpochShift) // status = active
	tx.startNanos.Store(now)
	tx.reads = tx.reads[:0]
	tx.writeIdx = tx.writeIdx[:0]
	if tx.writeVals != nil {
		clear(tx.writeVals)
	}
	tx.addIdx = tx.addIdx[:0]
	if tx.addVals != nil {
		clear(tx.addVals)
	}
	tx.foldedN = 0
	tx.undo = tx.undo[:0]
}

// endAttempt closes an attempt that did not commit: it reads the clock
// once, lets go of the ledger and observes the attempt's duration.
func (tx *Tx) endAttempt() {
	now := nanos()
	tx.blockEnd = now
	tx.flush()
	tx.mx.ObserveAttempt(now - tx.startNanos.Load())
}

// attempt executes fn once; aborted reports whether it must be
// retried.
func (tx *Tx) attempt(fn func(tx *Tx) error) (err error, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(txAbort)
			if !ok {
				// A panic out of user code must not leak encounter
				// locks, the irrevocable token or — the handle may
				// never be released — the ledger: let go of all three
				// before letting it unwind.
				tx.rollback()
				tx.releaseToken()
				tx.flush()
				panic(r)
			}
			// A kill that landed is what ended this attempt, whatever
			// the unwind site saw first (a combiner failing its own
			// admission, say): count every landed kill as AbortKilled.
			// Read before rollback retires the epoch.
			if st := tx.state.Load() & stateStatusMask; st == statusKilled || st == statusBatchKilled {
				ab.reason = metrics.AbortKilled
			}
			tx.lastAbort = ab.reason
			if tx.traced {
				tx.noteAbort(ab.reason)
			}
			tx.endAttempt()
			tx.mx.Abort(ab.reason)
			tx.rollback()
			aborted = true
		}
	}()
	err = fn(tx)
	if err != nil {
		// User-level abort: discard speculative state, no retry.
		if tx.traced {
			tx.captureFootprint()
		}
		tx.rollback()
		tx.releaseToken()
		tx.endAttempt()
		tx.mx.Abort(metrics.AbortExplicit)
		return err, false
	}
	if tx.traced {
		tx.captureFootprint()
	}
	tx.commit()
	tx.releaseToken()
	// Committed: one clock read, two plain stores into the ledger.
	now := nanos()
	tx.blockEnd = now
	tx.ledAttempt[tx.ledN] = now - tx.startNanos.Load()
	tx.ledBlock[tx.ledN] = now - tx.blockStart
	if tx.ledN++; tx.ledN == ledgerCap {
		tx.flush()
	}
	return nil, false
}

func (tx *Tx) releaseToken() {
	if tx.irrevocable.Load() {
		tx.irrevocable.Store(false)
		tx.rt.fallback.Unlock()
	}
}

// rollback undoes all speculative effects of the current attempt. Lazy
// has none left by now: it writes nothing before its no-return point,
// and the pipeline let go of any commit lock it took (abandon).
func (tx *Tx) rollback() {
	// Eager: restore the pre-images, then release the encounter locks
	// through the pipeline's stamp stage, at a *fresh* version.
	// Restoring the original version would be an ABA hazard: a reader
	// that loaded the lock word before we acquired, the value while our
	// dirty in-place write was visible, and the lock word again after
	// this rollback would see an unchanged version and accept the
	// uncommitted value. Bumping the commit clock makes its recheck fail
	// instead (at the cost of spurious validation aborts on the
	// identical pre-image, the standard undo-log STM trade).
	if len(tx.undo) > 0 {
		for i, idx := range tx.writeIdx {
			tx.rt.meta[idx].val.Store(tx.undo[i])
		}
		tx.stampRelease(tx.writeIdx, nil)
		tx.undo = tx.undo[:0]
		tx.adoptStamps()
	}
	// Retire this attempt's epoch: the locks are gone, so any
	// requestor still holding our captured (epoch, status) must see
	// the attempt as over — its kill CAS has to miss, keeping the
	// kills counter honest even while the descriptor idles on the
	// free list (the next reset bumps the epoch again).
	tx.state.Add(1 << stateEpochShift)
}

// abort unwinds the current attempt, attributed to one taxonomy
// reason.
func (tx *Tx) abort(reason metrics.AbortReason) {
	panic(txAbort{reason: reason})
}

// checkKilled aborts if a requestor killed this transaction.
func (tx *Tx) checkKilled() {
	if tx.killed() {
		tx.abort(metrics.AbortKilled)
	}
}

// holds reports whether the loaded lock word l is tx's own encounter
// or commit lock.
func (tx *Tx) holds(l uint64) bool { return isLocked(l) && lockOwner(l) == tx.id }

// extend adopts the latest snapshot after revalidating the whole read
// set (TL2/TinySTM-style snapshot extension). The commit clock is read
// *before* validation: any commit that races past the loaded value
// either touches a read word (validation fails) or leaves versions
// above the adopted snapshot (a later extension catches it). Called on
// every validation miss: a word someone committed after the snapshot
// was taken.
func (tx *Tx) extend() {
	c := tx.rt.clock.Load()
	tx.validateReads()
	tx.rv = c
	tx.mx.Add(metrics.CounterExtensions, 1)
}

// Load reads word idx transactionally.
func (tx *Tx) Load(idx int) uint64 {
	tx.checkKilled()
	if tx.rt.lazy {
		if v, ok := tx.writeVals[idx]; ok {
			return v
		}
	}
	m := &tx.rt.meta[idx]
	for {
		l1 := m.lock.Load()
		if isLocked(l1) {
			if tx.holds(l1) {
				return m.val.Load() // eager: our own in-place write
			}
			tx.onLocked(m, l1)
			tx.checkKilled()
			continue
		}
		if lockVersion(l1) > tx.rv {
			// The word changed after our snapshot; extend or die.
			tx.extend()
			continue
		}
		v := m.val.Load()
		if m.lock.Load() != l1 {
			continue // raced with a writer; retry the read
		}
		tx.reads = append(tx.reads, readEntry{idx: idx, ver: lockVersion(l1)})
		if len(tx.addIdx) > 0 {
			v = tx.foldPendingDelta(idx, v)
		}
		return v
	}
}

// foldPendingDelta lowers a pending delta on idx into a plain
// buffered write once the word has been read: the transaction is no
// longer blind on the word, so the delta loses its commutative status
// and rejoins the ordinary read+store footprint (the read entry was
// just recorded by Load).
func (tx *Tx) foldPendingDelta(idx int, v uint64) uint64 {
	d, ok := tx.addVals[idx]
	if !ok {
		return v
	}
	delete(tx.addVals, idx)
	tx.dropAddIdx(idx)
	v += d
	if _, ok := tx.writeVals[idx]; !ok {
		tx.writeIdx = append(tx.writeIdx, idx)
	}
	tx.writeVals[idx] = v
	return v
}

// dropAddIdx removes idx from the (unsorted) delta index list.
func (tx *Tx) dropAddIdx(idx int) {
	for i, w := range tx.addIdx {
		if w == idx {
			tx.addIdx[i] = tx.addIdx[len(tx.addIdx)-1]
			tx.addIdx = tx.addIdx[:len(tx.addIdx)-1]
			return
		}
	}
}

// Store writes val to word idx transactionally.
func (tx *Tx) Store(idx int, val uint64) {
	tx.checkKilled()
	if tx.rt.lazy {
		if _, ok := tx.writeVals[idx]; !ok {
			tx.writeIdx = append(tx.writeIdx, idx)
			if len(tx.addIdx) > 0 {
				// A plain write overwrites whatever the word held, so
				// a pending delta on it is dead: x += d; x = v ends at
				// v regardless of d.
				if _, ok := tx.addVals[idx]; ok {
					delete(tx.addVals, idx)
					tx.dropAddIdx(idx)
				}
			}
		}
		tx.writeVals[idx] = val
		return
	}
	// Eager: acquire the encounter lock on first touch, logging the
	// pre-image, then write in place.
	m := &tx.rt.meta[idx]
	if !tx.holds(m.lock.Load()) {
		tx.acquire(idx, tx.id, true)
		tx.writeIdx = append(tx.writeIdx, idx)
		tx.undo = append(tx.undo, m.val.Load())
	}
	m.val.Store(val)
}

// Add applies `word idx += delta` transactionally. Its contract is
// exactly Store(idx, Load(idx)+delta) — and that is literally how it
// executes on eager runtimes, with the lazy combiner lane closed, on
// the irrevocable slow path, or while Policy.FoldCommutative is off.
// When the attempt's latched policy has folding enabled and the
// commit is headed for the group-commit combiner, the delta is
// instead recorded blind: no read entry, no buffered value, just a
// commutative `+= delta` intent the combiner folds with every other
// delta to the same word in the batch (see batch.go). A subsequent
// Load or Store of the same word inside the transaction demotes the
// delta back to the ordinary read/write footprint, so mixed access
// keeps plain sequential semantics.
func (tx *Tx) Add(idx int, delta uint64) {
	tx.checkKilled()
	if !tx.batched || !tx.pol.FoldCommutative {
		tx.Store(idx, tx.Load(idx)+delta)
		return
	}
	if _, ok := tx.writeVals[idx]; ok {
		// The word's post-transaction value is already decided by a
		// buffered plain write; fold the delta into it.
		tx.writeVals[idx] += delta
		return
	}
	if tx.addVals == nil {
		tx.addVals = make(map[int]uint64, 4)
	}
	if _, ok := tx.addVals[idx]; !ok {
		tx.addIdx = append(tx.addIdx, idx)
	}
	tx.addVals[idx] += delta
}
