package stm

import (
	"runtime"

	"txconflict/internal/core"
	"txconflict/internal/metrics"
)

// chainK registers tx as a waiter on owner and returns the conflict
// chain-length estimate k. The estimate uses the post-Add waiter
// count, so simultaneous arrivals see distinct k values (2, 3, ...)
// instead of all computing k=2 — the Section 9 hybrid policy switch
// depends on this. Callers must pair with leaveChain.
func (owner *Tx) chainK() int {
	return 1 + int(owner.waiters.Add(1))
}

func (owner *Tx) leaveChain() {
	owner.waiters.Add(-1)
}

// onLocked is the conflict decision point: the caller loaded word m's
// lock word l and found it locked by another transaction. It returns
// once the lock has been observed to move on (so the caller may
// retry), and aborts the appropriate side per policy when the grace
// period expires.
//
// l names the receiver's descriptor; its identity is one *attempt*,
// captured as that descriptor's full (epoch, status) state at wait
// start: the kill is a CAS against exactly that state, and a changed
// lock word or epoch means the attempt we were waiting on is gone — a
// reused descriptor (or id) re-acquiring the same word can neither be
// killed by us nor absorb the rest of our grace period.
func (tx *Tx) onLocked(m *wordMeta, l uint64) {
	rt := tx.rt
	tx.flush() // every way out of here yields, waits or aborts
	owner := (*rt.descs.Load())[lockOwner(l)]
	st0 := owner.state.Load()
	// gone reports that the attempt we are waiting on released the
	// lock, lost it, or ended (epoch moved past st0's). A release always
	// changes the word; only the same descriptor re-taking it at an
	// unchanged version restores it, and that is a later epoch.
	gone := func() bool {
		return m.lock.Load() != l || owner.state.Load()>>stateEpochShift != st0>>stateEpochShift
	}
	if st0&stateStatusMask != statusActive || gone() {
		// The owning attempt is already dying, committing or gone (st0
		// may then belong to a later holder of the id); its locks drop
		// shortly if they have not yet, so just let the caller retry.
		runtime.Gosched()
		return
	}
	// One clock read opens the wait: it is the start of the grace
	// observation, the instant the abort cost B is priced at, and the
	// base of the deadline. The deferred observation also runs when
	// the wait ends in an abort panic, so no grace time is lost on
	// killed waiters, and every wait's k reaches the plane's KEstimate.
	waitStart := nanos()
	k := owner.chainK()
	defer func() {
		owner.leaveChain()
		ns := nanos() - waitStart
		if tx.traced {
			tx.tr.GraceWaitNs += ns
		}
		tx.mx.ObserveGrace(ns, k)
	}()

	d := tx.decide(owner, k, waitStart)
	deadline := waitStart + int64(d.Grace)
	for {
		if gone() {
			return
		}
		if tx.killed() {
			tx.abort(metrics.AbortKilled)
		}
		if nanos() >= deadline {
			break
		}
		runtime.Gosched()
	}
	// Grace expired: resolve the conflict.
	if owner.irrevocable.Load() {
		// The receiver cannot be killed; yield to it.
		tx.mx.Add(metrics.CounterSelfAborts, 1)
		tx.abort(metrics.AbortLockTimeout)
	}
	if d.Policy == core.RequestorWins || tx.irrevocable.Load() {
		if owner.state.CompareAndSwap(st0, st0&^stateStatusMask|statusKilled) {
			tx.mx.Add(metrics.CounterKills, 1)
			if tx.traced {
				tx.tr.KillsIssued++
			}
		}
		// Killed, or already past no-return: either way the locks
		// drop shortly. We may have been killed too (mutual kill on
		// crossed lock orders) — obey it, or the two of us wait on
		// each other forever.
		for !gone() {
			if tx.killed() {
				tx.abort(metrics.AbortKilled)
			}
			runtime.Gosched()
		}
		return
	}
	// Requestor aborts.
	tx.mx.Add(metrics.CounterSelfAborts, 1)
	tx.abort(metrics.AbortLockTimeout)
}

// decide prices the conflict with owner at the stamp now through the
// policy's rule: each side's B base is the time it has run plus
// CleanupCost (footnote 1) — the receiver's since the start stamp it
// published before its first lock (startNanos), the requestor's since
// its own start stamp, which a read-only requestor has not published —
// and µ comes from the metrics plane, the mean of its sampled blocks.
func (tx *Tx) decide(owner *Tx, k int, now int64) core.Decision {
	cleanup := float64(tx.pol.CleanupCost.Nanoseconds())
	receiver := core.Side{B: float64(now-owner.startNanos.Load()) + cleanup, Attempts: int(owner.attempts.Load())}
	requestor := core.Side{B: float64(now-tx.start) + cleanup, Attempts: int(tx.attempts.Load())}
	return tx.pol.Decide(k, receiver, requestor, tx.rt.metrics, tx.rng)
}
