// Package stm is a hand-rolled software transactional memory with
// versioned locks, extended with the paper's grace-period conflict
// resolution. Go has no hardware TM, so this runtime is the
// real-concurrency counterpart of the internal/htm simulator: the
// same core.Strategy implementations plug into real goroutines.
//
// # Arena layout
//
// A word is one cache-line-padded record holding its data and its
// lock word, so touching it costs one line and neighbouring words
// never false-share. The lock word packs three fields (encoded and
// decoded only by the helpers below wordMeta):
//
//	bit 0      locked
//	bits 1-47  version, drawn from the commit clock; kept intact
//	           while locked (batch admission, and releasing a word
//	           nobody wrote at its pre-lock version, rely on it)
//	bits 48-63 the owner's descriptor id while locked, else 0
//
// Acquiring is therefore one CAS, releasing is the one store that
// publishes the new version, and "do I own this word" is a compare on
// a lock word already loaded. Both fields have hard limits: a commit
// clock that would pass maxVersion (2^47-1: over two years of 2M
// commits/s) panics with errVersionOverflow rather than truncate — a
// truncated version reads as old and would skip an extension — and at
// most maxDescs (65535) Worker handles are open at once; one more
// blocks until a Release.
//
// Versions come from one TL2 commit clock, alone on its cache line: a
// commit that writes anything advances it once (bumpClock) and
// releases every word it wrote at the new value. Striping the clock by
// word index would spare disjoint writers that one shared line, but a
// commit would pay an add per stripe it wrote and a reader an extension
// per stripe it met, which is the wrong trade for a few hot words.
//
// A descriptor's snapshot rv is one clock value. When a read (or
// write-lock acquisition) observes a word version newer than rv, the
// transaction *extends* — it reads the clock, revalidates its entire
// read set, and on success adopts the newer snapshot (TL2/TinySTM-style
// extension). Extension failure aborts, so opacity is preserved: no
// transaction, even a doomed one, observes a torn snapshot. The
// snapshot is carried from one attempt (and block, and handle) to the
// next and picks up the descriptor's own commit stamps: any value the
// clock once held is a valid snapshot for an empty read set — the
// commit pipeline (commit.go) stamps only once every word of its plan
// is locked, so a writer stamped at or below it locked its words
// before the clock got there and its words read as locked or already
// new, and a later writer stamps above it — and it only moves inside
// an attempt through extend. So only words committed by someone else
// since then cost an extension, and one extension covers every such
// word committed before it read the clock.
//
// # Locking modes
//
//   - Eager (encounter-time, default): writers acquire the word lock
//     at the first Store — or already at the read, through
//     LoadForUpdate, for a word they read and then write — and write
//     in place with an undo log: the faithful analogue of the paper's
//     HTM (Algorithm 1), where a transaction owns its write set for its
//     whole duration and conflicts find the receiver mid-execution, at
//     the requestor's own access.
//   - Lazy (commit-time, TL2-style): writes are buffered and locks
//     are taken in address order only inside commit. Lock hold times
//     are short, so grace periods matter less — this mode doubles as
//     the "lazy versioning" ablation.
//
// Both modes, and the lazy mode's group-commit combiner, commit through
// one staged pipeline (commit.go); eager only skips its lock and
// write-back stages, done at the first touch of each word it writes.
//
// # Conflicts and the epoch scheme
//
// A conflict arises when a transaction (the requestor) encounters a
// word locked by another transaction (the receiver — it owns the
// data item, exactly the paper's receiver role). The requestor
// evaluates the configured core.Strategy to obtain the grace period
// (using the doomed side's elapsed time as the abort cost B, paper
// footnote 1), then waits:
//
//   - requestor wins: at the deadline the requestor kills the
//     receiver (a status CAS the receiver observes at its next
//     instrumentation point) and waits for the locks to drop;
//   - requestor aborts: at the deadline the requestor aborts itself.
//
// The lock word names the receiver by descriptor id, resolved through
// the runtime's descriptor table (one atomic slice load). An id is
// bound to one descriptor for the life of the runtime, and descriptors
// are reused — across retries, blocks and, through the free list,
// Worker handles — so "the receiver" must mean one *attempt*, not one
// descriptor. Each descriptor therefore packs an attempt epoch and a
// status into a single atomic state word (epoch << stateEpochShift |
// status, with stateEpochShift = 3: the status field is three bits
// wide since the group commit added its three terminal outcomes —
// batchDone, batchFail, batchKilled — to active/killed/noReturn);
// every retry bumps the epoch. A requestor captures the receiver's
// (epoch, status) when its wait begins, kills with a CAS against
// exactly that state, and treats any change of the lock word or the
// epoch as "the lock moved on". A stale requestor can thus never kill
// a later attempt, and never mistakes a later attempt of the same
// descriptor — or another handle's use of its id — for the one it
// started waiting on.
//
// A receiver that reaches its commit write-back phase can no longer
// be killed (commit is locally atomic, as in the HTM model).
// Transactions that exhaust MaxRetries fall back to an irrevocable
// slow path (serialized by a token), the STM analogue of the paper's
// lock-free fallback paths.
//
// # Commutative folding
//
// The paper's conflict model (and §9's k-chain analysis) treats every
// write to a hot word as a conflict edge: n transactions incrementing
// one counter serialize into a chain of length n regardless of
// policy, because read-modify-write footprints genuinely conflict.
// But blind increments commute — the chain is an artifact of
// expressing "add delta" as load;store. Tx.Add records such deltas
// separately in the descriptor footprint (no read entry, no value
// dependency), and the group-commit combiner (batch.go, gated by
// Policy.FoldCommutative) exploits them: when every access to a
// contended word within a drained batch is a tagged delta, the
// combiner applies ONE summed store and advances the commit clock
// once, collapsing the k-length conflict chain into a single commit
// event. Any plain write to the same word in the same batch falls
// back to roster-order write-back, so mixed traffic keeps exact
// semantics. Outside the fold path (eager mode, unbatched lazy, fold
// gate off, irrevocable blocks) Add lowers to the equivalent
// load/store pair at record time, so the operation is always exact —
// folding changes only how many clock advances and lock handoffs the
// hot word pays, never what it reads afterwards. The foldedCommits
// and foldedWords counters count the folds; TxTrace.FoldedWrites
// attributes them per block.
package stm

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/metrics"
	"txconflict/internal/strategy"
)

const cacheLine = 64

// wordMeta is one arena word: its lock word and its data on one cache
// line, padded so two words never share one.
type wordMeta struct {
	lock atomic.Uint64
	val  atomic.Uint64
	_    [cacheLine - 16]byte
}

// The lock word's fields (see "Arena layout") and their limits.
const (
	lockBit    uint64 = 1
	idShift           = 48
	maxVersion uint64 = 1<<(idShift-1) - 1
	maxDescs          = 1<<(64-idShift) - 1 // ids 1..maxDescs; 0 = no owner
)

var errVersionOverflow = errors.New("stm: commit clock passed the lock word's 47-bit version field")

func isLocked(l uint64) bool { return l&lockBit != 0 }

// lockVersion is the word's version, locked or not.
func lockVersion(l uint64) uint64 { return l >> 1 & maxVersion }

// lockOwner is the holder's descriptor id (0 when unlocked).
func lockOwner(l uint64) uint64 { return l >> idShift }

// lockedBy is the unlocked word l taken by descriptor id, version kept.
func lockedBy(l, id uint64) uint64 { return l | lockBit | id<<idShift }

// unlockedAt is the released word publishing version ver.
func unlockedAt(ver uint64) uint64 { return ver << 1 }

// unlockedKeep releases l with the version it was taken at.
func unlockedKeep(l uint64) uint64 { return l & (maxVersion << 1) }

// freeList is one stack of idle descriptors, its head — (pops+pushes)
// <<16 | top id, the count defeating ABA — alone on a line: handles
// opened under different worker ids (modulo the list count) never
// contend, as they never contend on a metrics shard.
type freeList struct {
	head atomic.Uint64
	_    [cacheLine - 8]byte
}

// Config assembles a runtime at construction time: the *initial*
// Policy, embedded — the dynamic half Runtime.SetPolicy can replace
// atomically at any point (see policy.go) — and the *structural*
// fields below, which with the arena size passed to New freeze the
// memory layout and instrumentation for the life of the Runtime.
// Runtime.Config reconstructs a Config with the current policy, so
// reports always label what actually ran.
type Config struct {
	Policy
	// Lazy switches to commit-time locking (TL2); the default is
	// eager encounter-time locking, matching the paper's HTM. Only a
	// lazy runtime has the group-commit combiner lanes that
	// Policy.CommitBatch opens.
	Lazy bool
	// Trace, when non-nil, receives one TxTrace per completed atomic
	// block (see internal/trace for the production recorder). All
	// instrumentation is gated behind this nil check, so the hot path
	// is unperturbed when tracing is off.
	Trace Tracer
	// Metrics is the plane (internal/metrics) every event of this
	// runtime is counted in: per-worker latency histograms for grace-wait
	// and combiner-drain time and, over the 1-in-N sampled blocks,
	// attempt and commit time, the abort-reason taxonomy, the event
	// counters behind Stats (commits exact), and, over an independent
	// 1 in N, the commit-phase timers. Unlike Trace it is always on — a
	// committed block costs a count in its descriptor's ledger (and a
	// sampled one at most two clock reads and two plain stores), its
	// share of one bulk fold per sixteen blocks (see Worker) and no
	// allocations (pinned by TestTraceGateOverhead) — so nil only leaves
	// the sizing to New; supply a plane to choose the shard count and the
	// sample interval. A plane passed to two runtimes merges their
	// counters.
	Metrics *metrics.Plane
}

// DefaultConfig returns an eager requestor-wins configuration with
// the 2-competitive uniform strategy.
func DefaultConfig() Config {
	return Config{Policy: Policy{
		Rule:        core.Rule{Policy: core.RequestorWins, Strategy: strategy.UniformRW{}, BackoffFactor: 1},
		CleanupCost: 2 * time.Microsecond,
		MaxRetries:  64,
	}}
}

// String renders the config for reports: the policy's label with the
// locking mode after its strategy.
func (c Config) String() string {
	p, mode := c.Policy, "lazy"
	if !c.Lazy {
		p.CommitBatch, mode = 0, "eager" // as New does: no lanes to open
	}
	return p.label(mode)
}

// Stats is the runtime's event counts: a read-only view of its
// metrics plane, which is where every event is counted once.
type Stats struct{ plane *metrics.Plane }

// Snapshot returns the counts keyed by lowerCamel name — commits,
// aborts, kills, selfAborts, graceWaits, irrevocable, extensions,
// batches, batchCommits, batchFails, foldedCommits, foldedWords —
// from one plane snapshot (metrics.PlaneSnapshot.Counts is the key
// table). A caller that also wants the plane's histograms takes
// Metrics().Snapshot() and calls Counts on it instead of paying for
// two snapshots.
func (s *Stats) Snapshot() map[string]uint64 {
	ps := s.plane.Snapshot()
	return ps.Counts()
}

// Runtime is a transactional memory arena plus its conflict policy.
// The structural fields (lazy, tracer, the arena itself) are
// frozen at New; the conflict policy lives behind one atomic pointer
// and is swappable at runtime (SetPolicy) — each transaction attempt
// latches the current *Policy once, so a swap never tears a running
// attempt and an unswapped runtime pays only the pointer load.
type Runtime struct {
	lazy       bool
	tracer     Tracer
	metrics    *metrics.Plane
	sampleMask uint64 // metrics.SampleN()-1: a block is a sample when its draw & sampleMask is 0 (see Worker)
	phaseMask  uint64 // the same, for the draw's high half: the block runs the phase timers
	meta       []wordMeta

	pol      atomic.Pointer[Policy]
	polSwaps atomic.Uint64

	fallback sync.Mutex // serializes irrevocable transactions

	// The descriptor table: descs maps an id to its descriptor (index 0
	// unused), grown under descMu and never shrunk; free holds the idle
	// ones (see Worker). descLimit is maxDescs, lower in tests.
	descs     atomic.Pointer[[]*Tx]
	descMu    sync.Mutex
	descLimit int
	free      []freeList

	// Group-commit combiner lanes (nil unless Lazy); whether commits
	// actually route through them is the current Policy.CommitBatch.
	// A committing write set maps to batch[lowestWriteIdx & batchMask].
	batch     []batchShard
	batchMask int

	Stats Stats

	// clock is the commit clock (see "Arena layout"). Every commit adds
	// to it, so it sits a full line away from the header above, which
	// every Load and Store reads, and from whatever follows the Runtime.
	_     [cacheLine]byte
	clock atomic.Uint64
	_     [cacheLine - 8]byte
}

// New creates a runtime with n words, all zero.
func New(n int, cfg Config) *Runtime {
	if n <= 0 {
		panic("stm: non-positive arena size")
	}
	plane := cfg.Metrics
	if plane == nil {
		plane = metrics.NewPlane(runtime.GOMAXPROCS(0), 0)
	}
	rt := &Runtime{
		lazy:       cfg.Lazy,
		tracer:     cfg.Trace,
		metrics:    plane,
		sampleMask: uint64(plane.SampleN() - 1),
		phaseMask:  uint64(plane.SampleN() - 1),
		Stats:      Stats{plane: plane},
		meta:       make([]wordMeta, n),
		descLimit:  maxDescs,
		free:       make([]freeList, ceilPow2(min(runtime.GOMAXPROCS(0), 16))),
	}
	rt.descs.Store(&[]*Tx{nil})
	if cfg.Lazy {
		// Lanes exist on every lazy runtime — a few cache lines — so
		// SetPolicy can open the combiner later without reallocating
		// under live transactions.
		rt.setBatchShards(defaultBatchShards())
	}
	p := cfg.Policy
	p.normalize()
	if !rt.lazy {
		p.CommitBatch = 0
	}
	rt.pol.Store(&p)
	return rt
}

// KEstimate returns the mean conflict-chain length k over every grace
// wait this runtime's plane has seen (metrics.Plane.KEstimate); 0
// before the first.
func (rt *Runtime) KEstimate() float64 { return rt.metrics.KEstimate() }

// ceilPow2 rounds n up to the next power of two (n >= 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Config returns the runtime's configuration with the *current*
// policy folded in: the structural half is the construction-time
// truth, the dynamic half reflects the latest SetPolicy — so
// Config().String() labels reports with what is actually running.
func (rt *Runtime) Config() Config {
	return Config{
		Policy:  rt.Policy(),
		Lazy:    rt.lazy,
		Trace:   rt.tracer,
		Metrics: rt.metrics,
	}
}

// Metrics returns the runtime's metrics plane (never nil).
func (rt *Runtime) Metrics() *metrics.Plane { return rt.metrics }

// ReadCommitted reads a word outside any transaction, spinning past
// transient locks. Intended for post-run verification.
func (rt *Runtime) ReadCommitted(idx int) uint64 {
	m := &rt.meta[idx]
	for {
		l := m.lock.Load()
		if !isLocked(l) {
			v := m.val.Load()
			if m.lock.Load() == l {
				return v
			}
		}
		runtime.Gosched()
	}
}

// bumpClock advances the commit clock and returns the new version.
func (rt *Runtime) bumpClock() uint64 {
	v := rt.clock.Add(1)
	if v > maxVersion {
		panic(errVersionOverflow)
	}
	return v
}
