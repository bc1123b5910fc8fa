package stm

import "txconflict/internal/metrics"

// TxTrace summarizes one completed Atomic call — every attempt of one
// atomic block, from the first optimistic execution to the final
// commit (or user-level abort). It is the runtime half of a trace
// record: the scenario layer knows the program (op count, sampled
// compute, think time) and annotates separately; the runtime knows
// what actually happened (retries, kills, grace waits, the concrete
// word footprint of the final attempt).
type TxTrace struct {
	// Worker is the caller-supplied worker id (AtomicWorker), or -1
	// for plain Atomic calls.
	Worker int
	// StartUnixNs is the wall-clock start of the first attempt, Unix
	// nanoseconds. For a block chained on a Worker handle that is the
	// instant the handle's previous block ended (for its first block,
	// the instant the handle opened).
	StartUnixNs int64
	// DurNs is the duration of the whole atomic block on the runtime's
	// monotonic clock — exactly what the metrics plane's commit
	// histogram observed for a committed block.
	DurNs int64
	// GraceWaitNs is the total time this transaction spent waiting in
	// grace periods (as a requestor), across all attempts.
	GraceWaitNs int64
	// Retries counts aborted attempts before the outcome.
	Retries int
	// KillsSuffered counts attempts of this block killed by
	// requestors; KillsIssued counts receivers this block killed while
	// resolving its own conflicts.
	KillsSuffered, KillsIssued int
	// Committed distinguishes a commit from a user-level abort.
	Committed bool
	// FoldedWrites counts this block's delta-writes (tx.Add) that the
	// group-commit combiner folded into summed hot-word applications
	// (0 for unbatched commits and demoted deltas).
	FoldedWrites int
	// Irrevocable reports that the block fell back to the serialized
	// slow path before finishing.
	Irrevocable bool
	// Reads and Writes are the word footprint of the final attempt:
	// the distinct word indices read and written, disjoint (a word
	// both read and written counts as a write). The slices are reused
	// across transactions — Tracer implementations must copy what
	// they keep.
	Reads, Writes []uint32
}

// Tracer receives one TxTrace per completed Atomic/AtomicWorker call
// when installed as Config.Trace. TraceTx is called on the
// transaction's own goroutine; implementations must be safe for
// concurrent use from many workers and must not retain t or its
// slices past the call.
type Tracer interface {
	TraceTx(t *TxTrace)
}

// beginTrace opens instrumentation for one atomic block (tracing
// enabled only).
func (tx *Tx) beginTrace(worker int) {
	tx.tr = TxTrace{
		Worker: worker,
		Reads:  tx.tr.Reads[:0],
		Writes: tx.tr.Writes[:0],
	}
}

// captureFootprint snapshots the attempt's word footprint before
// commit/rollback clears the sets. Re-executed attempts overwrite the
// previous capture, so the emitted footprint is the final attempt's.
func (tx *Tx) captureFootprint() {
	tx.tr.Reads = tx.tr.Reads[:0]
	tx.tr.Writes = tx.tr.Writes[:0]
	for _, idx := range tx.writeIdx {
		tx.tr.Writes = append(tx.tr.Writes, uint32(idx))
	}
	// Pending delta-writes are writes too (blind ones: they never
	// appear in the read log, so the dedup below is unaffected).
	for _, idx := range tx.addIdx {
		tx.tr.Writes = append(tx.tr.Writes, uint32(idx))
	}
	// The read set logs one entry per Load, and a read-before-write
	// word appears there too (the Load ran before the lock was owned
	// or the write buffered); dedupe against both lists so Reads is
	// the distinct read-only footprint, disjoint from Writes. Sets
	// are small, so the quadratic scan beats sorting.
outer:
	for _, re := range tx.reads {
		w := uint32(re.idx)
		for _, seen := range tx.tr.Reads {
			if seen == w {
				continue outer
			}
		}
		for _, written := range tx.tr.Writes {
			if written == w {
				continue outer
			}
		}
		tx.tr.Reads = append(tx.tr.Reads, w)
	}
}

// noteAbort records trace-relevant facts about an aborted attempt.
func (tx *Tx) noteAbort(reason metrics.AbortReason) {
	if reason == metrics.AbortKilled {
		tx.tr.KillsSuffered++
	}
}

// emitTrace finalizes the block's trace and hands it to the
// configured Tracer. The pointer (and its slices) are valid only for
// the duration of the call — the descriptor returns to the free list right
// after.
func (tx *Tx) emitTrace(committed bool) {
	tx.tr.Committed = committed
	tx.tr.Retries = int(tx.attempts.Load())
	// The block's two stamps are the ones the plane just observed, so
	// DurNs is exactly the commit-latency observation.
	tx.tr.StartUnixNs = wallNanos(tx.blockStart)
	tx.tr.DurNs = tx.blockEnd - tx.blockStart
	tx.rt.tracer.TraceTx(&tx.tr)
}
