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
	// hence atomic. startNanos is the attempt's start stamp as a
	// requestor prices it, published by publishStart before the first
	// lock that names this descriptor; until then it holds an older
	// attempt's stamp, which nobody reads.
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
	// blockStart is the block's start stamp, the base of a sampled
	// block's committed-block latency observation; blockEnd is where the
	// handle's next block starts (see Worker): the latest attempt's end
	// stamp if it read the clock there, else its start stamp carried on;
	// lastAbort is the taxonomy reason of the most recent aborted
	// attempt.
	mx         *metrics.Shard
	blockStart int64
	blockEnd   int64
	lastAbort  metrics.AbortReason

	// The attempt's stamps, owner-private: start is its start stamp (see
	// Worker); published says startNanos holds it. sampled and phased are
	// the block's one sampling draw, from sampler — a stream of the
	// descriptor's own, so the draw moves neither the caller's rng nor the
	// block's position in a handle: sampled (its low half) picks a latency
	// sample, phased (its high half) a block that runs the commit-phase
	// timers.
	start     int64
	published bool
	sampled   bool
	phased    bool
	sampler   rng.Rand

	// The observation ledger: pend counts the committed blocks mx has
	// not been told about yet, and of those the sampled ones are ledN
	// entries, entry i's committing attempt having taken ledAttempt[i]
	// ns and its whole block ledBlock[i]. Owner-private plain words — a
	// commit bumps pend, appends if sampled, and returns — folded into
	// mx by flush (see Worker for when).
	pend       int
	ledN       int
	ledAttempt [ledgerCap]int64
	ledBlock   [ledgerCap]int64

	// writeIdx is the attempt's write set, the commit pipeline's plan:
	// lazy buffers the values in writeVals; eager locked each word at its
	// first Store or LoadForUpdate and wrote in place, undo[i] holding
	// writeIdx[i]'s pre-image.
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

// flush folds the ledger into the metrics shard: the commit count, then
// the sampled durations. Called wherever the owner is about to wait or
// unwind, so what a snapshot misses is only blocks of a handle that is
// running right now.
func (tx *Tx) flush() {
	if tx.pend > 0 {
		tx.mx.Add(metrics.CounterCommits, uint64(tx.pend))
		tx.mx.ObserveCommits(tx.ledAttempt[:tx.ledN], tx.ledBlock[:tx.ledN])
		tx.pend, tx.ledN = 0, 0
	}
}

// publishStart makes the attempt's start stamp what a requestor reads in
// startNanos. Called before every lock acquisition that can name this
// descriptor — eager's own, lazy's pipeline, a lane member's enqueue —
// and a no-op after the first, so an attempt that takes no lock pays
// no fenced store.
func (tx *Tx) publishStart() {
	if !tx.published {
		tx.startNanos.Store(tx.start)
		tx.published = true
	}
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
// It is the one-shot form of a Worker handle: one free-list round
// trip, and the clock read of the handle's opening plus, if the block
// takes a lock or is sampled, the one at its end (see Worker).
func (rt *Runtime) AtomicWorker(worker int, r *rng.Rand, fn func(tx *Tx) error) error {
	w := rt.Worker(worker, r)
	err := w.Atomic(fn)
	w.Release()
	return err
}

// Worker is a handle for running atomic blocks back to back on one
// goroutine (a batch of keyed ops, say). It owns one descriptor for
// its whole life.
//
// Every block has a start stamp — the abort cost B a conflict prices is
// either side's running time (paper footnote 1) — but the handle chains
// stamps, so a block reads the clock only at its end, and only where it
// must. The handle reads it once when it opens; each block starts at
// the stamp the previous one left in blockEnd (the first at the opening
// read). Each block draws once whether it is one of the metrics plane's
// 1-in-SampleN samples (a traced block always is); a sampled block, or
// one that took a lock, reads the clock at its end, after releasing,
// and leaves that stamp to the next block, so a run of writers reads
// the clock once per block. An unsampled read-only block reads no clock
// at all: it leaves its own start stamp to the next block. The stamp
// reaches requestors in startNanos, published before the block's first
// lock can name the descriptor (publishStart), so a block that takes no
// lock pays no fenced store either. The high half of the same draw picks,
// independently and also 1 in SampleN, the blocks that run the
// commit-phase timers: their clock reads would double a short block's
// duration, so they stay out of all but 1 in SampleN of the latency
// samples.
//
// B and the observations of a chained block therefore include the time
// the caller spent between blocks, and after a run of unsampled
// read-only blocks B includes those blocks too — which is why a handle
// must not be held across think time, I/O or any other wait: open it,
// run the blocks, Release it. A sampled block times itself alone: after
// a read-only block it does not start at the carried stamp but reads
// the clock afresh, so the attempt and commit histograms and the µ
// they give (Plane.ProfileMean) are per-block durations.
//
// What is never chained: every retry stamps afresh, so rollback or the
// wait for the irrevocable token never inflates an attempt's duration
// or the abort cost B a requestor prices against this descriptor's
// startNanos, and a stale stamp cannot outlive Release (the next handle
// reads its own). A panic out of a block breaks the chain too: the next
// block reads the clock at its start.
//
// A live handle also holds observations back: a block that commits
// writes no shared counter, it counts itself in the descriptor's ledger
// (and notes its attempt and block durations there if sampled), and the
// ledger reaches the metrics plane sixteen blocks at a time. It is let
// go of at Release, when full, and before the owner can wait or unwind:
// ahead of a grace wait, the combiner queue and the irrevocable token,
// on an aborted attempt, on a block that returns an error, and on a
// panic out of fn (so a handle leaked by a panic loses nothing). A
// snapshot therefore trails each running handle by at most sixteen
// committed blocks — in the commits count and in the sampled Commit
// and Attempt histograms, never in the arena — and by nothing across a
// wait, a retry or a Release; every block is still counted, and every
// sampled one observed with the stamps it ran at.
//
// A Worker is not safe for concurrent use, and its blocks must not
// nest.
type Worker struct {
	tx *Tx
	id int
	// chained reports that tx.blockEnd is the stamp the next block
	// starts at: the handle's opening read, or what the previous block
	// left there on running to its end. carried reports that the
	// previous block read no clock at its end, so that stamp is the one
	// it started at, carried on.
	chained bool
	carried bool
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
	tx.blockEnd = nanos()
	return Worker{tx: tx, id: id, chained: true}
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
	tx := &Tx{rt: rt, id: uint64(len(descs)), sampler: *rng.New(uint64(len(descs)))}
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
	draw := tx.sampler.Uint64()
	tx.sampled = tx.traced || draw&tx.rt.sampleMask == 0
	tx.phased = draw>>32&tx.rt.phaseMask == 0
	// The chain holds only from the end of a block to the first attempt
	// of the next: it is broken here and re-made on return, so a panic
	// out of fn leaves it broken.
	start := tx.blockEnd
	if !w.chained || tx.sampled && w.carried {
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
			w.chained, w.carried = true, !tx.sampled && !tx.published
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

// reset opens a fresh attempt starting at the stamp start, published
// to requestors only at its first lock (publishStart): a new epoch (so
// stale requestors from the previous attempt can neither kill us nor
// keep waiting on us), the current conflict policy, and cleared
// speculative state. The snapshot rv is kept (see "Arena layout").
func (tx *Tx) reset(start int64) {
	tx.pol = tx.rt.pol.Load()
	tx.batched = tx.rt.batch != nil && tx.pol.CommitBatch > 0 && !tx.irrevocable.Load()
	tx.state.Store((tx.epoch() + 1) << stateEpochShift) // status = active
	tx.start, tx.published = start, false
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

// endAttempt closes an attempt that did not commit: it lets go of the
// ledger and, in a sampled block or after a lock, reads the clock once
// (endClock), observing a sampled attempt's duration.
func (tx *Tx) endAttempt() {
	sampled := tx.endClock()
	tx.flush()
	if sampled {
		tx.mx.ObserveAttempt(tx.blockEnd - tx.start)
	}
}

// endClock leaves the attempt's stamp for the next block in blockEnd:
// its end, read now, when the block is sampled or the attempt took a
// lock (and so published its start); else its start, carried on. It
// reports whether the block is sampled.
func (tx *Tx) endClock() bool {
	if tx.sampled || tx.published {
		tx.blockEnd = nanos()
	} else {
		tx.blockEnd = tx.start
	}
	return tx.sampled
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
	// Committed: one count, and for a sampled block two plain stores
	// into the ledger.
	if tx.endClock() {
		tx.ledAttempt[tx.ledN] = tx.blockEnd - tx.start
		tx.ledBlock[tx.ledN] = tx.blockEnd - tx.blockStart
		tx.ledN++
	}
	if tx.pend++; tx.pend == ledgerCap {
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
	// Eager: write in place under the encounter lock.
	tx.own(idx).val.Store(val)
}

// LoadForUpdate reads word idx transactionally, for a caller that will
// write it. On an eager runtime it takes the word's encounter lock at
// the read, as the first Store would, so the word gets no read-set
// entry and a competing transaction meets the lock at its own access —
// where the conflict policy prices the grace period — rather than this
// one failing validation at commit. On a lazy runtime it is Load.
//
// A word taken this way and never stored commits, on eager, at a new
// version with its old value, as a Store of the same value would: use
// it only for words the transaction writes.
func (tx *Tx) LoadForUpdate(idx int) uint64 {
	if tx.rt.lazy {
		return tx.Load(idx)
	}
	tx.checkKilled()
	return tx.own(idx).val.Load()
}

// own returns eager word idx with tx holding its encounter lock: on
// first touch it acquires the lock and adds the word to the write set,
// logging its pre-image in the undo log.
func (tx *Tx) own(idx int) *wordMeta {
	m := &tx.rt.meta[idx]
	if !tx.holds(m.lock.Load()) {
		tx.publishStart()
		tx.acquire(idx, tx.id, true)
		tx.writeIdx = append(tx.writeIdx, idx)
		tx.undo = append(tx.undo, m.val.Load())
	}
	return m
}

// Add applies `word idx += delta` transactionally. Its contract is
// exactly Store(idx, Load(idx)+delta). It executes as
// Store(idx, LoadForUpdate(idx)+delta) — on eager runtimes the word is
// locked at the read — with the lazy combiner lane closed, on the
// irrevocable slow path, or while Policy.FoldCommutative is off.
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
		tx.Store(idx, tx.LoadForUpdate(idx)+delta)
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
