// The group-commit lane front end for the lazy (TL2) mode — a
// flat-combining commit in the spirit of Hendler et al.'s flat
// combining and TL2's decoupled commit.
//
// The paper's core observation is that conflict cost concentrates in
// serialized commit-time work on hot words. An unbatched lazy commit
// pays that serialization per transaction: every committer fights for
// the same commit locks, burns a grace period per conflict, and
// advances the commit clock with its own add. Batching amortizes all
// three. Committing write sets map onto a small set of combiner lanes;
// the first transaction to claim a lane becomes its *combiner*, drains
// the lane's queue into a roster (drain: the commit pipeline's plan
// stage for a lane) and runs the commit pipeline (commit.go) over it
// once for the whole roster: each commit lock acquired once in address
// order, members admitted in roster order, one commit-clock advance for
// the round, every drained descriptor's outcome stamped into its packed
// state word.
//
// Commutative folding (Policy.FoldCommutative) rides on admission and
// write-back: delta-writes recorded by tx.Add are blind — no read entry
// on the word — so a batch of increments to one hot counter all pass
// admission, and the combiner applies their sum with a single store
// instead of failing everyone after the first writer. Mixed delta/plain
// access to a word falls back to strict roster-order application. This
// is the paper's §9 point made concrete: the conflict was detected
// either way; resolving it by commuting instead of retrying turns the
// worst-contention workload into the best-batching one.
//
// A waiting member spins on its own state word until stamped; if it
// observes the lane idle while still unstamped it claims the lane
// itself, so a queued descriptor can always self-serve (including one
// killed while queued — it drains itself and retires as a victim).
// Descriptors never leave the queue except by being drained, and every
// drained descriptor is stamped exactly once before the lane is
// released — stampOutcome enforces that with strict state transitions
// rather than trusting the protocol.
//
// When batching loses: under low contention the combiner handshake
// (lane CAS, roster bookkeeping) is pure overhead on commits that would
// not have conflicted anyway, and with long think times between
// transactions the queue never fills, so every "batch" has one member.
// Policy.CommitBatch = 0, settable live through SetPolicy, closes the
// lane for exactly those regimes: the next attempts commit as rosters
// of one.
package stm

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"txconflict/internal/metrics"
)

// batchShard is one combiner lane, padded onto its own cache line:
// the lane-ownership flag, the bounded-queue census and the Treiber
// stack of waiting descriptors.
type batchShard struct {
	busy   atomic.Uint32      // 1 while a combiner owns the lane
	queued atomic.Int32       // waiters linked (or linking) into the queue
	head   atomic.Pointer[Tx] // waiting descriptors, newest first
	_      [cacheLine - 16]byte
}

// defaultBatchShards sizes the combiner lanes to the machine: one
// lane per ~8 processors so batches actually form (a lane per
// processor would almost never see two committers), capped so lane
// state stays small. More lanes means less combining but less lane
// contention.
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

// setBatchShards builds the combiner lanes: New sizes them with
// defaultBatchShards, and tests rebuild them with an explicit count
// (cross-lane combiner conflicts — two combiners fighting over
// overlapping word sets — cannot happen with the single lane small
// machines get). Must be called before any transaction runs.
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
	tx.flush()        // the queue is a wait
	tx.publishStart() // and a combiner locks words under this descriptor's id
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
	tx.drain(sh, true)
	out := tx.pipeline(tx.r)
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
// The pipeline fails the round's members in that case (abandon).
// Reports whether another round is worth trying.
func (tx *Tx) helpRound(sh *batchShard) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			if _, isAbort := p.(txAbort); !isAbort {
				panic(p)
			}
			ok = false
		}
	}()
	if tx.drain(sh, false) {
		tx.pipeline(tx.r)
	}
	return true
}

// drain is the plan stage of a lane round: it empties the queue into
// the combiner's roster (tx.r) — tx first when it commits in this round, then the
// waiters, which rely on drain-implies-stamp to retire — and merges the
// roster's write and delta words into one sorted, distinct plan. Each
// word's lock names the first member writing it, so a requestor
// conflicts with — and can kill — a real queued transaction, not an
// opaque combiner. Reports whether the roster has any member.
func (tx *Tx) drain(sh *batchShard, includeSelf bool) bool {
	if tx.r == nil {
		tx.r = new(roster)
	}
	r := tx.r
	r.members = r.members[:0]
	if includeSelf {
		r.members = append(r.members, tx)
	}
	drained := 0
	for m := sh.head.Swap(nil); m != nil; {
		next := m.batchNext.Load()
		m.batchNext.Store(nil)
		drained++
		if m != tx {
			r.members = append(r.members, m)
		}
		m = next
	}
	if drained > 0 {
		sh.queued.Add(int32(-drained))
	}
	plan := r.plan[:0]
	for _, m := range r.members {
		plan = append(plan, m.writeIdx...)
		plan = append(plan, m.addIdx...)
	}
	sort.Ints(plan)
	n := 0
	for i, idx := range plan {
		if i == 0 || idx != plan[n-1] {
			plan[n] = idx
			n++
		}
	}
	r.plan = plan[:n]
	r.owners, r.marks, r.sums = r.owners[:0], r.marks[:0], r.sums[:0]
	for _, idx := range r.plan {
		for _, m := range r.members {
			if hasWord(m.writeIdx, idx) || hasWord(m.addIdx, idx) {
				r.owners = append(r.owners, m.id)
				break
			}
		}
		r.marks = append(r.marks, 0)
		r.sums = append(r.sums, 0)
	}
	return len(r.members) > 0
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

// hasWord reports whether the sorted word list ws contains idx.
func hasWord(ws []int, idx int) bool {
	i := sort.SearchInts(ws, idx)
	return i < len(ws) && ws[i] == idx
}
