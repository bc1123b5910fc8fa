package stm

import (
	"sort"

	"txconflict/internal/metrics"
)

// The commit pipeline. Every commit — eager, lazy, and each round of a
// group-commit lane (batch.go) — is one run of the same stages over a
// roster, the descriptors committing together:
//
//  1. plan: what the roster locks. Eager holds its plan already, the
//     words it locked at their first Store; lazy is a roster of one
//     whose plan is its sorted write set (commit); a lane round is the
//     drained queue, its write and delta sets merged into one sorted,
//     distinct plan (drain).
//  2. acquire: take the plan's locks in address order (acquire, the one
//     lock loop, which eager runs at Store time). Every committer locks
//     in the same order, so committers — single or combining, in any
//     lane — and the irrevocable path never deadlock on each other; a
//     foreign lock resolves through the conflict machinery (onLocked)
//     with the committer as requestor.
//  3. admit: decide who commits before anything is written (admit). A
//     roster of one crosses the no-return point, losing to a kill that
//     landed first, and revalidates its reads; a lane round admits
//     members in roster order.
//  4. write back: store the admitted buffered values in roster order,
//     commutative deltas folded into one sum per word (writeBack);
//     eager wrote in place.
//  5. stamp and release: one commit-clock advance for the whole roster
//     if it writes anything, each word released at the new version or,
//     written by nobody admitted, at the version it was taken at
//     (stampRelease). Eager rollback releases through this stage too.
//  6. publish: adopt the stamps as the committer's snapshot, then stamp
//     each drained member's outcome (publish).
//
// Only stages 2 and 3 abort, and nothing is written before stage 4, so
// an abort unwinding out of the pipeline has only to release what stage
// 2 took, at the versions it was taken at, and fail the drained members
// (abandon); eager's locks, taken at Store, go with its undo log
// (rollback). Stamping after every lock of the plan is held is what
// keeps any value the commit clock once held a sound snapshot: a writer
// stamped at or below it had locked all its words before the clock got
// there (see "Arena layout").

// roster is a lane round's commit: who commits and what it locks. It
// belongs to the combiner (Tx.r) and is reused round after round, so a
// batched commit allocates nothing — and, kept with the descriptor
// rather than the lane, its lines stay on the combiner's core when the
// lane passes between cores. A roster of one is nil:
// the committing transaction alone, its plan its own writeIdx, every
// word locked under its id and written.
type roster struct {
	members []*Tx    // commit order: the combiner first when it commits
	plan    []int    // address order
	owners  []uint64 // per plan word, the id its lock names: its first writer
	outs    []uint64 // per member: statusBatchDone, Fail or Killed
	// marks classifies each plan word by what admitted members do to
	// it: 0 nothing, -1 a plain write, n > 0 n commutative deltas and no
	// plain write, folded into sums.
	marks []int
	sums  []uint64
}

// commit ends an attempt whose fn returned: a read-only attempt needs
// only a last kill check (every read was validated against rv), the
// rest go through the pipeline — lazy ones headed for the combiner by
// way of their lane.
func (tx *Tx) commit() {
	if len(tx.writeIdx) == 0 && len(tx.addIdx) == 0 {
		tx.checkKilled()
		return
	}
	if tx.rt.lazy {
		sort.Ints(tx.writeIdx)
		if tx.batched {
			sort.Ints(tx.addIdx)
			tx.commitLazyBatched()
			return
		}
	}
	tx.pipeline(nil)
}

// pipeline runs stages 2 to 6 over a planned roster (nil: tx alone)
// and returns the committer's outcome, which only a lane round it
// belongs to reads.
func (tx *Tx) pipeline(r *roster) uint64 {
	plan, marks := tx.writeIdx, []int(nil)
	if r != nil {
		plan, marks = r.plan, r.marks
	}
	// plan[:held] were taken by stage 2; settled: admission is over, and
	// the locks belong to stage 5. Eager takes no lock here, so has
	// nothing to abandon.
	held, settled := 0, false
	if tx.rt.lazy {
		defer func() {
			if !settled {
				tx.abandon(plan[:held], r)
			}
		}()
	}
	// The phase timers, 1-in-N sampled (metrics.Plane.SampleN): one lap
	// per stage boundary, on the committer's descriptor — a lane round's
	// whole batch is one sample, one acquisition and one advance for
	// many commits. Eager has no lock or write-back stage to attribute.
	// An abort discards the sample, so the histograms only describe
	// commits that reached each phase.
	sampled := tx.samplePhases()
	var t0 int64
	if sampled {
		t0 = nanos()
	}
	lap := func(ph metrics.CommitPhase) {
		if sampled {
			t1 := nanos()
			tx.mx.Phase(ph, t1-t0)
			t0 = t1
		}
	}
	if tx.rt.lazy {
		for ; held < len(plan); held++ {
			owner := tx.id
			if r != nil {
				owner = r.owners[held]
			}
			tx.acquire(plan[held], owner, r == nil)
		}
		lap(metrics.PhaseLock)
	}
	tx.admit(r)
	settled = true
	lap(metrics.PhaseValidate)
	if tx.rt.lazy {
		tx.writeBack(r)
		lap(metrics.PhaseWriteBack)
	}
	tx.stampRelease(plan, marks)
	lap(metrics.PhaseClock)
	return tx.publish(r)
}

// acquire is the one lock loop: it takes word idx's lock under the
// owner id, resolving a foreign holder through onLocked. A transaction
// locking for itself (extend) first extends past a word committed after
// its snapshot, as a read would; a combiner locking for a roster has no
// snapshot of its own to extend.
func (tx *Tx) acquire(idx int, owner uint64, extend bool) {
	m := &tx.rt.meta[idx]
	for {
		tx.checkKilled()
		l := m.lock.Load()
		if isLocked(l) {
			tx.onLocked(m, l)
			continue
		}
		if extend && lockVersion(l) > tx.rv {
			tx.extend()
			continue
		}
		if m.lock.CompareAndSwap(l, lockedBy(l, owner)) {
			return
		}
	}
}

// admit is stage 3. A roster of one enters no-return and revalidates its
// reads, aborting on either. A lane round admits in roster order: a
// member commits iff every read still holds its recorded version —
// words locked by this round keep their pre-round version bits, so the
// round's own locks are transparent, and foreign locks fail it
// conservatively — and no earlier-admitted member writes a word it read
// (the lost update group commit must not allow). The active→no-return
// CAS then atomically loses to any kill that landed while it queued.
//
// A delta (tx.Add) has no read entry on its word, so a roster of blind
// increments to one hot counter all pass both checks, where the plain
// read-modify-write would fail everyone after the first writer; the
// delta still counts as a write against later members, so one that
// read the word keeps full lost-update protection.
func (tx *Tx) admit(r *roster) {
	if r == nil {
		tx.enterNoReturn()
		tx.validateReads()
		return
	}
	r.outs = r.outs[:0]
	for _, m := range r.members {
		st := m.state.Load()
		if st&stateStatusMask != statusActive {
			r.outs = append(r.outs, statusBatchKilled)
			continue
		}
		if !r.readsHold(tx.rt, m) {
			r.outs = append(r.outs, statusBatchFail)
			continue
		}
		if !m.state.CompareAndSwap(st, st&^stateStatusMask|statusNoReturn) {
			r.outs = append(r.outs, statusBatchKilled)
			continue
		}
		r.outs = append(r.outs, statusBatchDone)
		for _, idx := range m.writeIdx {
			r.marks[sort.SearchInts(r.plan, idx)] = -1
		}
		for _, idx := range m.addIdx {
			if j := sort.SearchInts(r.plan, idx); r.marks[j] >= 0 {
				r.marks[j]++
			}
		}
	}
}

// readsHold is admit's read check for member m of a lane round.
func (r *roster) readsHold(rt *Runtime, m *Tx) bool {
	for _, re := range m.reads {
		l := rt.meta[re.idx].lock.Load()
		j := sort.SearchInts(r.plan, re.idx)
		inPlan := j < len(r.plan) && r.plan[j] == re.idx
		if lockVersion(l) != re.ver || isLocked(l) && !inPlan || inPlan && r.marks[j] != 0 {
			return false
		}
	}
	return true
}

// writeBack is stage 4: the admitted members' buffered values, in
// roster order, so a later member writing the same word wins. A delta to
// a word no admitted member plain-writes joins the word's sum, stored
// once at the end — the commutative payoff, one store per hot counter
// per round; a delta to a plain-written word applies on the spot,
// keeping strict roster order for mixed access.
func (tx *Tx) writeBack(r *roster) {
	meta := tx.rt.meta
	if r == nil {
		for _, idx := range tx.writeIdx {
			meta[idx].val.Store(tx.writeVals[idx])
		}
		return
	}
	for i, m := range r.members {
		if r.outs[i] != statusBatchDone {
			continue
		}
		for _, idx := range m.writeIdx {
			meta[idx].val.Store(m.writeVals[idx])
		}
		for _, idx := range m.addIdx {
			if j := sort.SearchInts(r.plan, idx); r.marks[j] > 0 {
				r.sums[j] += m.addVals[idx]
				m.foldedN++
				continue
			}
			w := &meta[idx].val
			w.Store(w.Load() + m.addVals[idx])
		}
	}
	for j, idx := range r.plan {
		if r.marks[j] > 0 {
			w := &meta[idx].val
			w.Store(w.Load() + r.sums[j])
		}
	}
}

// stampRelease is stage 5, and eager rollback's release: it advances
// the commit clock once, at the first written word (wv keeps the stamp
// for the rest), and releases every plan word, at the new version when
// it was written (marks nil: all were), else at the version it was
// taken at.
func (tx *Tx) stampRelease(plan []int, marks []int) {
	rt := tx.rt
	for j, idx := range plan {
		m := &rt.meta[idx]
		if marks != nil && marks[j] == 0 {
			m.lock.Store(unlockedKeep(m.lock.Load()))
			continue
		}
		if tx.wv == 0 {
			tx.wv = rt.bumpClock()
		}
		m.lock.Store(unlockedAt(tx.wv))
	}
}

// publish is stage 6: the committer adopts its stamps, and a lane round
// counts itself and stamps each drained member's outcome — after the
// release, so failed members re-fight for the words at once. Members
// do their own commit bookkeeping when they see their stamp.
func (tx *Tx) publish(r *roster) uint64 {
	tx.adoptStamps()
	if r == nil {
		tx.undo = tx.undo[:0] // committed: nothing left to roll back
		return statusBatchDone
	}
	tx.mx.Add(metrics.CounterBatches, 1)
	var committed, failed, foldedTxs, foldedWords, self uint64
	for i, m := range r.members {
		switch r.outs[i] {
		case statusBatchDone:
			committed++
			if m.foldedN > 0 {
				foldedTxs++
			}
		case statusBatchFail:
			failed++
		}
		if m == tx {
			self = r.outs[i]
		} else {
			stampOutcome(m, r.outs[i])
		}
	}
	for _, k := range r.marks {
		if k > 0 {
			foldedWords++
		}
	}
	tx.mx.Add(metrics.CounterBatchCommits, committed)
	tx.mx.Add(metrics.CounterBatchFails, failed)
	if foldedTxs > 0 {
		tx.mx.Add(metrics.CounterFoldedCommits, foldedTxs)
		tx.mx.Add(metrics.CounterFoldedWords, foldedWords)
	}
	return self
}

// abandon is the pipeline's unwind path: an abort out of stage 2 or 3
// — killed, timed out on a lock, failed validation — has written
// nothing, so the words stage 2 took (held) are released at the
// versions they were taken at (a locked word keeps its version bits),
// and every drained member is failed so its goroutine retries.
func (tx *Tx) abandon(held []int, r *roster) {
	for _, idx := range held {
		m := &tx.rt.meta[idx]
		m.lock.Store(unlockedKeep(m.lock.Load()))
	}
	if r == nil {
		return
	}
	for _, m := range r.members {
		if m != tx {
			stampOutcome(m, statusBatchFail)
		}
	}
}

// enterNoReturn transitions to the unkillable commit phase. A kill
// that lands first wins: the transaction obeys it and aborts.
func (tx *Tx) enterNoReturn() {
	st := tx.state.Load()
	if tx.irrevocable.Load() {
		tx.state.Store(st&^stateStatusMask | statusNoReturn)
		return
	}
	if st&stateStatusMask != statusActive ||
		!tx.state.CompareAndSwap(st, st&^stateStatusMask|statusNoReturn) {
		tx.mx.Add(metrics.CounterSelfAborts, 1)
		tx.abort(metrics.AbortKilled)
	}
}

// validateReads re-checks the read set (at commit time and on every
// extension): each word is still at the version it was read at, or is
// locked by this attempt.
func (tx *Tx) validateReads() {
	for _, re := range tx.reads {
		l := tx.rt.meta[re.idx].lock.Load()
		if !tx.holds(l) && (isLocked(l) || lockVersion(l) != re.ver) {
			tx.mx.Add(metrics.CounterSelfAborts, 1)
			tx.abort(metrics.AbortValidation)
		}
	}
}

// adoptStamps ends a commit or rollback: the attempt's read set is
// dead, so the stamp it drew, if any — a value the clock held — is a
// valid, and the newest possible, snapshot to start the next attempt
// from.
func (tx *Tx) adoptStamps() {
	if tx.wv != 0 {
		tx.rv, tx.wv = tx.wv, 0
	}
}
