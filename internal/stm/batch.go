// Batched group commit for the lazy (TL2) mode — a flat-combining
// commit phase in the spirit of Hendler et al.'s flat combining and
// TL2's decoupled commit.
//
// The paper's core observation is that conflict cost concentrates in
// serialized commit-time work on hot words. The unbatched lazy path
// pays that serialization per transaction: every committer fights for
// the same commit locks, burns a grace period per conflict, and
// advances the stripe clocks with its own CAS. Batching amortizes all
// three. Committing write sets are mapped onto a small set of
// combiner lanes; the first transaction to claim a lane becomes its
// *combiner* and commits a whole queue of write sets in one round:
//
//  1. Drain the lane queue into a roster (self first, then waiters).
//  2. Merge the roster's write sets into one sorted, deduplicated
//     lock plan and acquire each commit lock once, in address order.
//     Foreign locks resolve through the normal conflict machinery
//     (grace periods, kills) with the combiner as requestor.
//  3. Admit members in roster order: a member commits iff every read
//     still holds its recorded version (locks held by this batch keep
//     their pre-batch version bits, so the batch's own locks are
//     transparent) and no earlier-admitted member writes a word it
//     read — the intra-batch lost-update check. Admission flips the
//     member's state to no-return with a CAS, which atomically
//     resolves the race against requestor kills: a transaction that
//     was killed while queued can never be written back.
//  4. Write back admitted members, advance each written stripe clock
//     ONCE for the whole batch, release the locks, and stamp every
//     drained descriptor's outcome into its packed state word.
//
// Commutative folding (Policy.FoldCommutative) rides on step 3/4:
// delta-writes recorded by tx.Add are blind — no read entry on the
// word — so a batch of increments to one hot counter all pass
// admission, and the combiner applies their sum with a single store
// instead of failing everyone after the first writer. Mixed
// delta/plain access to a word falls back to strict roster-order
// application. This is the paper's §9 point made concrete: the
// conflict was detected either way; resolving it by commuting instead
// of retrying turns the worst-contention workload into the
// best-batching one.
//
// A waiting member spins on its own state word until stamped; if it
// observes the lane idle while still unstamped it claims the lane
// itself, so a queued descriptor can always self-serve (including
// one killed while queued — it drains itself and retires as a
// victim). Descriptors never leave the queue except by being drained,
// and every drained descriptor is stamped exactly once before the
// lane is released — stampOutcome enforces that with strict state
// transitions rather than trusting the protocol.
//
// When batching loses: under low contention the combiner handshake
// (lane CAS, roster bookkeeping) is pure overhead on commits that
// would not have conflicted anyway, and with long think times between
// transactions the queue never fills, so every "batch" has one
// member. Config.CommitBatch = 0 keeps the direct path for exactly
// those regimes.
package stm

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"txconflict/internal/metrics"
)

// batchShard is one combiner lane, padded onto its own cache line:
// the lane-ownership flag, the bounded-queue census, and the Treiber
// stack of waiting descriptors.
type batchShard struct {
	busy   atomic.Uint32      // 1 while a combiner owns the lane
	queued atomic.Int32       // waiters linked (or linking) into the queue
	head   atomic.Pointer[Tx] // waiting descriptors, newest first
	_      [cacheLine - 16]byte
}

// defaultBatchShards sizes the combiner lanes to the machine: one
// lane per ~8 processors so batches actually form (a lane per stripe
// would almost never see two committers), capped so lane state stays
// small. More lanes means less combining but less lane contention.
func defaultBatchShards() int {
	s := runtime.GOMAXPROCS(0) / 8
	if s < 1 {
		s = 1
	}
	if s > 16 {
		s = 16
	}
	return ceilPow2(s)
}

// setBatchShards rebuilds the combiner lanes with an explicit lane
// count (tests only): cross-lane combiner conflicts — two combiners
// fighting over overlapping word sets — cannot happen with the single
// lane defaultBatchShards derives on small machines. Must be called
// before any transaction runs.
func (rt *Runtime) setBatchShards(n int) {
	n = ceilPow2(n)
	rt.batch = make([]batchShard, n)
	rt.batchMask = n - 1
}

// commitLazyBatched funnels this transaction's commit through its
// shard's combiner: claim the lane and combine, or enqueue and wait
// for a terminal stamp. tx.writeIdx and tx.addIdx are sorted and at
// least one of them is non-empty (a pure-counter transaction carries
// only delta-writes).
func (tx *Tx) commitLazyBatched() {
	rt := tx.rt
	tx.flush() // the queue is a wait
	first := 0
	switch {
	case len(tx.writeIdx) == 0:
		first = tx.addIdx[0]
	case len(tx.addIdx) == 0 || tx.writeIdx[0] < tx.addIdx[0]:
		first = tx.writeIdx[0]
	default:
		first = tx.addIdx[0]
	}
	sh := &rt.batch[first&rt.batchMask]
	enqueued := false
	spins := 0
	for {
		if enqueued {
			switch st := tx.state.Load() & stateStatusMask; st {
			case statusBatchDone, statusBatchFail, statusBatchKilled:
				tx.finishBatch(st)
				return
			}
			// Not stamped yet. A kill may have landed (statusKilled),
			// but the descriptor stays linked until a combiner drains
			// it — aborting now would dangle the queue link — so fall
			// through and make sure a combiner exists to drain us.
		}
		if sh.busy.Load() == 0 && sh.busy.CompareAndSwap(0, 1) {
			if enqueued {
				// The lane was idle, so the previous combiner (if any)
				// finished: either it drained and stamped us — handle
				// the stamp above — or we are still queued and about
				// to drain ourselves.
				switch tx.state.Load() & stateStatusMask {
				case statusBatchDone, statusBatchFail, statusBatchKilled:
					sh.busy.Store(0)
					continue
				}
			}
			tx.finishBatch(tx.combine(sh))
			return
		}
		if !enqueued {
			if n := sh.queued.Load(); int(n) < tx.pol.CommitBatch-1 && sh.queued.CompareAndSwap(n, n+1) {
				for {
					old := sh.head.Load()
					tx.batchNext.Store(old)
					if sh.head.CompareAndSwap(old, tx) {
						break
					}
				}
				enqueued = true
				continue
			}
			// Queue full: stay unlinked and keep bidding for the lane.
		}
		spins++
		batchPause(spins)
	}
}

// batchPause is the waiter's backoff: yield to the scheduler while
// the combiner is likely mid-round, then fall back to short sleeps —
// a lane holder descheduled by the OS can stall for milliseconds, and
// a pack of Gosched-spinning waiters only starves it further (the
// oversubscribed single-CPU pathology).
func batchPause(spins int) {
	if spins < 128 {
		runtime.Gosched()
		return
	}
	time.Sleep(5 * time.Microsecond)
}

// finishBatch translates a terminal batch outcome into the normal
// commit/abort control flow on the member's own goroutine, so commit
// bookkeeping (the commit observation, the duration profile, TxTrace
// emission) stays per-transaction exactly as on the unbatched path.
func (tx *Tx) finishBatch(out uint64) {
	switch out {
	case statusBatchDone:
		if tx.traced {
			// foldedN was written by the combiner before the outcome
			// stamp; observing the stamp ordered it.
			tx.tr.FoldedWrites = tx.foldedN
		}
		return
	case statusBatchKilled:
		tx.abort(metrics.AbortKilled)
	default: // statusBatchFail
		tx.mx.Add(metrics.CounterSelfAborts, 1)
		tx.abort(metrics.AbortBatchAdmission)
	}
}

// maxHelpRounds bounds the combiner's altruism: after its own round,
// a combiner keeps draining and committing rounds that queued up
// behind it (classic flat combining — a fresh pile of waiters becomes
// one batch instead of racing for the lane), but only this many times
// so its own caller's latency stays bounded under sustained load.
const maxHelpRounds = 2

// combine runs the lane: the combiner's own round, then up to
// maxHelpRounds altruistic rounds for commits that queued meanwhile.
// Called holding sh.busy; releases it on every path, including an
// abort unwinding out of lock acquisition. Returns tx's own outcome.
func (tx *Tx) combine(sh *batchShard) uint64 {
	defer sh.busy.Store(0)
	t0 := nanos()
	out := tx.combineRound(sh, true)
	for r := 0; r < maxHelpRounds && sh.head.Load() != nil; r++ {
		if !tx.helpRound(sh) {
			break
		}
	}
	// Drain time: the whole lane occupancy, own round plus altruistic
	// rounds (a combiner abort unwinds past this and the round goes
	// unobserved, like any other dead attempt).
	tx.mx.ObserveDrain(nanos() - t0)
	return out
}

// helpRound runs one altruistic round, swallowing the combiner's own
// conflict aborts (tx's outcome is already decided; an abort raised
// while acquiring locks for *other* transactions must not unwind —
// and possibly retry — an attempt that may already have committed).
// The round's members are stamped failed by combineRound's cleanup in
// that case. Reports whether another round is worth trying.
func (tx *Tx) helpRound(sh *batchShard) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			if _, isAbort := p.(txAbort); !isAbort {
				panic(p)
			}
			ok = false
		}
	}()
	tx.combineRound(sh, false)
	return true
}

// combineRound drains the lane queue and commits one batch. When
// includeSelf is set, tx is the roster head and its outcome is
// returned; otherwise the roster is just the drained waiters (an
// altruistic round) and the return value is meaningless. Every
// drained descriptor is stamped before the round returns or unwinds.
func (tx *Tx) combineRound(sh *batchShard, includeSelf bool) uint64 {
	rt := tx.rt

	// Roster in commit order: self first (when committing), then the
	// drained queue. Waiters rely on drain-implies-stamp to retire.
	members := tx.batchMembers[:0]
	if includeSelf {
		members = append(members, tx)
	}
	drained := 0
	for m := sh.head.Swap(nil); m != nil; {
		next := m.batchNext.Load()
		m.batchNext.Store(nil)
		drained++
		if m != tx {
			members = append(members, m)
		}
		m = next
	}
	if drained > 0 {
		sh.queued.Add(int32(-drained))
	}
	tx.batchMembers = members
	if len(members) == 0 {
		return 0
	}

	// Merged lock plan: the distinct write words of the whole roster
	// in address order (orderly acquisition keeps combiners in
	// different lanes deadlock-free among themselves and with the
	// irrevocable path, which locks in the same order). Each word's
	// owner field is attributed to the first roster member writing it,
	// so requestors conflict with — and can kill — a real queued
	// transaction, not an opaque combiner.
	locks := tx.batchLocks[:0]
	for _, m := range members {
		locks = append(locks, m.writeIdx...)
		locks = append(locks, m.addIdx...)
	}
	sort.Ints(locks)
	n := 0
	for i, idx := range locks {
		if i == 0 || idx != locks[n-1] {
			locks[n] = idx
			n++
		}
	}
	locks = locks[:n]
	tx.batchLocks = locks
	owners := tx.batchOwners[:0]
	for _, idx := range locks {
		for _, m := range members {
			if writesWord(m, idx) || addsWord(m, idx) {
				owners = append(owners, m)
				break
			}
		}
	}
	tx.batchOwners = owners

	vers := tx.batchVers[:0] // pre-acquisition lock words, parallel to locks
	acquired := 0
	completed := false
	defer func() {
		if completed {
			return
		}
		// The combiner's own abort is unwinding (killed during
		// acquisition, or yielding to an irrevocable lock holder).
		// Nothing was written back yet — admission has not run — so
		// release the acquired locks with their original versions and
		// fail the drained roster (their goroutines retry) before the
		// panic resumes.
		for i := 0; i < acquired; i++ {
			rt.meta[locks[i]].lock.Store(vers[i])
		}
		for _, m := range members {
			if m != tx {
				stampOutcome(m, statusBatchFail)
			}
		}
	}()

	// Phase timers, 1-in-N sampled on the combiner's descriptor; the whole
	// batch's phase work is attributed to one sample, matching the
	// amortization story (one acquisition/advance for many commits).
	sampled := tx.samplePhases()
	var t0 int64
	if sampled {
		t0 = nanos()
	}
	for i, idx := range locks {
		m := &rt.meta[idx]
		for {
			tx.checkKilled()
			l := m.lock.Load()
			if isLocked(l) {
				tx.onLocked(m, l)
				continue
			}
			if m.lock.CompareAndSwap(l, lockedBy(l, owners[i].id)) {
				vers = append(vers, l)
				acquired++
				break
			}
		}
	}
	tx.batchVers = vers
	if sampled {
		t1 := nanos()
		tx.mx.Phase(metrics.PhaseLock, t1-t0)
		t0 = t1
	}

	// Admission, in roster order. A member is admitted iff every read
	// still holds its recorded version — words locked by this batch
	// keep their pre-batch version bits, so the batch's own locks are
	// transparent; foreign locks fail conservatively — and no
	// earlier-admitted member writes a word it read (its read is stale
	// the moment the batch commits: the lost update group commit must
	// not allow). The active→noReturn CAS then atomically loses to
	// any kill that landed while the member was queued.
	//
	// Commutative folding needs no extra admission rule: a tagged
	// delta-write (tx.Add) carries no read entry on its word, so a
	// roster full of blind increments to one hot counter sails through
	// both checks and every member is admitted — where the plain RMW
	// encoding would fail everyone after the first admitted writer.
	// Delta words still count as *writes* against later members
	// (admittedWrites below), so a member that actually read the hot
	// word keeps full lost-update protection.
	outs := tx.batchOuts[:0]
	admittedWrites := tx.batchAdmitted[:0]
	for _, m := range members {
		st := m.state.Load()
		if st&stateStatusMask != statusActive {
			outs = append(outs, statusBatchKilled)
			continue
		}
		ok := true
		for _, re := range m.reads {
			l := rt.meta[re.idx].lock.Load()
			if lockVersion(l) != re.ver || (isLocked(l) && !containsWord(locks, re.idx)) {
				ok = false
				break
			}
		}
		if ok {
		overlap:
			for _, re := range m.reads {
				for _, w := range admittedWrites {
					if re.idx == w {
						ok = false
						break overlap
					}
				}
			}
		}
		if !ok {
			outs = append(outs, statusBatchFail)
			continue
		}
		if !m.state.CompareAndSwap(st, st&^stateStatusMask|statusNoReturn) {
			outs = append(outs, statusBatchKilled)
			continue
		}
		outs = append(outs, statusBatchDone)
		admittedWrites = append(admittedWrites, m.writeIdx...)
		admittedWrites = append(admittedWrites, m.addIdx...)
	}
	tx.batchOuts = outs
	tx.batchAdmitted = admittedWrites
	if sampled {
		t1 := nanos()
		tx.mx.Phase(metrics.PhaseValidate, t1-t0)
		t0 = t1
	}

	// Write back admitted members in roster order (a later-admitted
	// writer of a shared word serializes after, so its value wins).
	// Deltas to a word nobody plain-writes are not applied here: they
	// accumulate into one sum and the word is updated once below —
	// the commutativity payoff (one store per hot counter per batch).
	// A delta to a word some admitted member plain-writes falls back
	// to on-the-spot application, keeping strict roster order for
	// mixed access.
	folds := tx.batchFolds[:0]
	sums := tx.batchSums[:0]
	for range locks {
		folds = append(folds, 0)
		sums = append(sums, 0)
	}
	for i, m := range members {
		if outs[i] != statusBatchDone {
			continue
		}
		for _, idx := range m.writeIdx {
			folds[wordPos(locks, idx)] = -1
		}
	}
	var foldedTxs uint64
	for i, m := range members {
		if outs[i] != statusBatchDone {
			continue
		}
		for _, idx := range m.writeIdx {
			rt.meta[idx].val.Store(m.writeVals[idx])
		}
		m.foldedN = 0
		for _, idx := range m.addIdx {
			j := wordPos(locks, idx)
			if folds[j] < 0 {
				w := &rt.meta[idx].val
				w.Store(w.Load() + m.addVals[idx])
				continue
			}
			folds[j]++
			sums[j] += m.addVals[idx]
			m.foldedN++
		}
		if m.foldedN > 0 {
			foldedTxs++
		}
	}
	var foldedWords uint64
	for j, idx := range locks {
		if folds[j] > 0 {
			w := &rt.meta[idx].val
			w.Store(w.Load() + sums[j])
			foldedWords++
		}
	}
	tx.batchFolds = folds
	tx.batchSums = sums
	if sampled {
		t1 := nanos()
		tx.mx.Phase(metrics.PhaseWriteBack, t1-t0)
		t0 = t1
	}

	// Release: one clock advance per *written* stripe for the whole
	// batch — the CAS-traffic amortization this path exists for. A
	// locked word whose only writers failed admission is unchanged and
	// releases with its original version.
	for i, idx := range locks {
		written := false
		for _, w := range admittedWrites {
			if w == idx {
				written = true
				break
			}
		}
		m := &rt.meta[idx]
		if written {
			s := rt.stripeOf(idx)
			if tx.wvs[s] == 0 {
				tx.wvs[s] = rt.bumpClock(s)
			}
			m.lock.Store(unlockedAt(tx.wvs[s]))
		} else {
			m.lock.Store(vers[i])
		}
	}
	tx.adoptStamps()
	if sampled {
		tx.mx.Phase(metrics.PhaseClock, nanos()-t0)
	}

	// Stamp outcomes (after release, so failed members re-fight for
	// locks immediately) and settle the ledger. Per-member commit
	// bookkeeping happens on each member's own goroutine when it
	// observes its stamp.
	tx.mx.Add(metrics.CounterBatches, 1)
	var committedN, failedN uint64
	var selfOut uint64
	for i, m := range members {
		switch outs[i] {
		case statusBatchDone:
			committedN++
		case statusBatchFail:
			failedN++
		}
		if m == tx {
			selfOut = outs[i]
		} else {
			stampOutcome(m, outs[i])
		}
	}
	tx.mx.Add(metrics.CounterBatchCommits, committedN)
	tx.mx.Add(metrics.CounterBatchFails, failedN)
	if foldedTxs > 0 {
		tx.mx.Add(metrics.CounterFoldedCommits, foldedTxs)
		tx.mx.Add(metrics.CounterFoldedWords, foldedWords)
	}
	completed = true
	return selfOut
}

// stampOutcome publishes a drained member's terminal outcome into its
// packed state word. The only legal concurrent writer is a
// requestor's one-shot kill CAS (active→killed), so every other
// pre-state means the descriptor was stamped twice — a protocol
// violation worth dying loudly for rather than silently double
// committing.
func stampOutcome(m *Tx, out uint64) {
	for {
		st := m.state.Load()
		switch st & stateStatusMask {
		case statusActive:
			if out == statusBatchDone {
				panic("stm: batch commit stamp on an unadmitted descriptor")
			}
			// A kill can still race in; retry resolves it below.
			if m.state.CompareAndSwap(st, st&^stateStatusMask|out) {
				return
			}
		case statusKilled:
			if out == statusBatchDone {
				panic("stm: batch commit stamp on a killed descriptor")
			}
			// Preserve the kill: the waiter retires as a victim.
			if m.state.CompareAndSwap(st, st&^stateStatusMask|statusBatchKilled) {
				return
			}
		case statusNoReturn:
			if out != statusBatchDone {
				panic("stm: batch failure stamp on an admitted descriptor")
			}
			if m.state.CompareAndSwap(st, st&^stateStatusMask|statusBatchDone) {
				return
			}
		default:
			panic("stm: descriptor stamped twice in a batch")
		}
	}
}

// writesWord reports whether m's (sorted) write set contains idx.
func writesWord(m *Tx, idx int) bool {
	i := sort.SearchInts(m.writeIdx, idx)
	return i < len(m.writeIdx) && m.writeIdx[i] == idx
}

// addsWord reports whether m's (sorted) delta set contains idx.
func addsWord(m *Tx, idx int) bool {
	i := sort.SearchInts(m.addIdx, idx)
	return i < len(m.addIdx) && m.addIdx[i] == idx
}

// wordPos returns idx's position in the sorted lock plan; idx must be
// present (every write and delta word of every member is).
func wordPos(locks []int, idx int) int { return sort.SearchInts(locks, idx) }

// containsWord reports whether the sorted lock plan contains idx.
func containsWord(locks []int, idx int) bool {
	i := sort.SearchInts(locks, idx)
	return i < len(locks) && locks[i] == idx
}
