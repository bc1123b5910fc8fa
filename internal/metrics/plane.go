package metrics

import "sync/atomic"

// AbortReason is the abort taxonomy: every aborted attempt (and the
// two non-abort escalation events, MaxRetries and explicit user
// aborts) is attributed to exactly one reason, replacing the single
// opaque Aborts counter for diagnosis. The stm runtime maps its
// internal unwind causes onto these categories.
type AbortReason uint8

const (
	// AbortKilled: a requestor won the conflict and killed this
	// attempt (mid-execution, while waiting, or at the commit point).
	AbortKilled AbortReason = iota
	// AbortValidation: the read set failed validation — a snapshot
	// extension or commit-time recheck saw a newer version or a
	// foreign lock.
	AbortValidation
	// AbortLockTimeout: the grace period on a locked word expired with
	// the requestor on the losing side (requestor-aborts resolution,
	// or yielding to an irrevocable lock holder).
	AbortLockTimeout
	// AbortBatchAdmission: the group-commit combiner refused this
	// write set (stale reads or an intra-batch lost-update hazard).
	AbortBatchAdmission
	// AbortMaxRetries: the attempt budget ran out and the block
	// escalated to the irrevocable slow path (counted once per
	// escalation, alongside the per-attempt reason that caused it).
	AbortMaxRetries
	// AbortExplicit: the transaction function returned an error — a
	// user-level abort, never retried.
	AbortExplicit

	NumAbortReasons = int(AbortExplicit) + 1
)

// abortReasonNames are the label values used in exposition and JSON.
var abortReasonNames = [NumAbortReasons]string{
	"killed",
	"read-validation",
	"lock-timeout",
	"batch-admission",
	"max-retries",
	"explicit",
}

func (r AbortReason) String() string {
	if int(r) < len(abortReasonNames) {
		return abortReasonNames[r]
	}
	return "unknown"
}

// CommitPhase labels the sampled commit-phase timers.
type CommitPhase uint8

const (
	// PhaseValidate: commit-time read-set validation (and batch
	// admission, its combiner analogue).
	PhaseValidate CommitPhase = iota
	// PhaseLock: commit-lock acquisition (lazy mode; the combiner's
	// merged-plan acquisition in batched mode).
	PhaseLock
	// PhaseWriteBack: applying the buffered write set (including
	// folded delta sums) to the arena words.
	PhaseWriteBack
	// PhaseClock: commit-clock advance and lock release.
	PhaseClock

	NumCommitPhases = int(PhaseClock) + 1
)

var commitPhaseNames = [NumCommitPhases]string{
	"validate",
	"lock",
	"writeback",
	"clock",
}

func (p CommitPhase) String() string {
	if int(p) < len(commitPhaseNames) {
		return commitPhaseNames[p]
	}
	return "unknown"
}

// Counter indexes a shard's plain event counters: the runtime events
// that are neither a latency observation nor an abort attribution.
// Together with the grace histogram's count and the abort taxonomy
// they are everything stm.Stats reports (see PlaneSnapshot.Counts).
type Counter uint8

const (
	CounterCommits       Counter = iota // committed blocks, every one (exact; see Shard)
	CounterKills                        // receiver aborts forced by requestors
	CounterSelfAborts                   // requestor-side and validation aborts
	CounterExtensions                   // successful snapshot extensions
	CounterBatches                      // combiner rounds
	CounterBatchCommits                 // write sets committed by a combiner
	CounterBatchFails                   // admissions failed inside a batch
	CounterFoldedCommits                // admitted members whose deltas were folded
	CounterFoldedWords                  // hot words applied as one summed delta

	NumCounters = int(CounterFoldedWords) + 1
)

// counterNames are the lowerCamel keys of Counts (and so of
// /v1/stats and, snake-cased, of /metrics).
var counterNames = [NumCounters]string{
	"commits",
	"kills",
	"selfAborts",
	"extensions",
	"batches",
	"batchCommits",
	"batchFails",
	"foldedCommits",
	"foldedWords",
}

const cacheLine = 64

// DefaultSampleN is the default 1-in-N sampling interval. The stm
// runtime draws once per atomic block, and the draw makes two
// independent 1-in-N choices: whether the block is a latency sample — a
// sampled block alone times its attempts and itself (the attempt and
// commit histograms, and so ProfileMean) — and whether it runs the
// commit-phase timers, kept apart so the timers' own clock reads do not
// inflate the sampled durations. Event counts — commits included — are
// never sampled.
const DefaultSampleN = 64

// Shard is one worker's slice of the plane. Its methods are lock-free
// — uncontended atomic adds, and for ObserveCommits a batch of them per
// ledger of committed blocks rather than per block — so a worker
// hammering its own shard never contends with scrapes or with other
// workers (modulo shard-count folding when workers exceed shards).
//
// The attempt and commit histograms hold the 1-in-SampleN sampled
// blocks only, so their quantiles and means are sample statistics and
// their counts are not event counts; CounterCommits is the exact
// number of committed blocks, handed over with the ledger.
type Shard struct {
	attempt Histogram // per-attempt wall time of sampled blocks, committed and aborted
	commit  Histogram // whole-block wall time of sampled committed blocks
	grace   Histogram // per-conflict grace-period wait
	drain   Histogram // combiner round: drain to outcome stamps

	aborts   [NumAbortReasons]atomic.Uint64
	counters [NumCounters]atomic.Uint64
	phaseNs  [NumCommitPhases]atomic.Uint64
	phaseN   [NumCommitPhases]atomic.Uint64

	// kSum is the sum of the conflict-chain lengths k of the grace
	// waits in grace (Plane.KEstimate's numerator): written by the
	// shard's worker once per wait, behind the other owner-written words
	// and a line of tail padding away from the neighbour shard.
	kSum atomic.Uint64

	_ [cacheLine]byte
}

// ObserveAttempt records one sampled attempt's wall time (ns).
// Committed attempts arrive through ObserveCommits; this is the
// aborted ones.
func (s *Shard) ObserveAttempt(ns int64) { s.attempt.Observe(ns) }

// ObserveGrace records one grace-period wait (ns) on a conflict chain
// of length k.
func (s *Shard) ObserveGrace(ns int64, k int) {
	s.grace.Observe(ns)
	s.kSum.Add(uint64(k))
}

// ObserveDrain records one combiner round's duration (ns).
func (s *Shard) ObserveDrain(ns int64) { s.drain.Observe(ns) }

// Abort attributes one aborted attempt (or escalation event).
func (s *Shard) Abort(r AbortReason) { s.aborts[r].Add(1) }

// Add bumps one event counter by n.
func (s *Shard) Add(c Counter, n uint64) { s.counters[c].Add(n) }

// ObserveCommits folds a ledger of sampled committed blocks into the
// shard in one pass (the blocks' count goes to CounterCommits, sampled
// or not): block i's committing attempt took attemptNs[i] and the
// whole block, first attempt to commit, blockNs[i] (equal when it
// committed first time; the slices have one length). It leaves the
// attempt and commit histograms exactly as one Observe pair per block
// would — with one add per run of equal buckets and one count and one
// sum add per histogram.
func (s *Shard) ObserveCommits(attemptNs, blockNs []int64) {
	if len(attemptNs) == 0 {
		return
	}
	var att, blk bucketRun
	for i, a := range attemptNs {
		v := clampNs(a)
		bkt := bucketIndex(v)
		att.add(&s.attempt, bkt, v)
		if b := blockNs[i]; b != a {
			v = clampNs(b)
			bkt = bucketIndex(v)
		}
		blk.add(&s.commit, bkt, v)
	}
	att.flush(&s.attempt, len(attemptNs))
	blk.flush(&s.commit, len(attemptNs))
}

// Phase accumulates one sampled phase timing (ns).
func (s *Shard) Phase(p CommitPhase, ns int64) {
	if ns < 0 {
		ns = 0
	}
	s.phaseNs[p].Add(uint64(ns))
	s.phaseN[p].Add(1)
}

// Plane is the sharded metrics plane: one Shard per worker slot
// (folded modulo the shard count), merged on Snapshot.
type Plane struct {
	shards  []Shard
	mask    int
	sampleN int
}

// NewPlane builds a plane sized for the given worker count. workers
// is rounded up to a power of two and capped (shards are ~17KB each);
// sampleN is the 1-in-N block-sampling interval (see DefaultSampleN),
// rounded up to a power of two, with <= 0 selecting DefaultSampleN and
// 1 timing every block.
func NewPlane(workers, sampleN int) *Plane {
	n := 1
	for n < workers && n < 16 {
		n <<= 1
	}
	if sampleN <= 0 {
		sampleN = DefaultSampleN
	}
	sn := 1
	for sn < sampleN {
		sn <<= 1
	}
	return &Plane{shards: make([]Shard, n), mask: n - 1, sampleN: sn}
}

// Shard returns the shard for a worker id (any id, including the -1
// of anonymous Atomic calls, maps to a valid shard).
func (p *Plane) Shard(worker int) *Shard {
	if worker < 0 {
		worker = 0
	}
	return &p.shards[worker&p.mask]
}

// ProfileMean is the mean committed-block duration µ in nanoseconds:
// Σ Sum ÷ Σ Count over the shards' commit histograms, so the mean of
// the sampled blocks (0 = no sampled commit yet). It is read at a
// conflict, so a commit pays nothing for it.
func (p *Plane) ProfileMean() float64 {
	var sum, n uint64
	for i := range p.shards {
		h := &p.shards[i].commit
		sum += h.sum.Load()
		n += h.count.Load()
	}
	return ratio(sum, n)
}

// KEstimate is the mean conflict-chain length k over every grace wait
// observed: Σk ÷ Σ Count over the shards' grace histograms (0 = no
// wait yet).
func (p *Plane) KEstimate() float64 {
	var sum, n uint64
	for i := range p.shards {
		sum += p.shards[i].kSum.Load()
		n += p.shards[i].grace.count.Load()
	}
	return ratio(sum, n)
}

// ratio is a ÷ b, 0 for b = 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// SampleN returns the effective block-sampling interval.
func (p *Plane) SampleN() int { return p.sampleN }

// PlaneSnapshot is the merged view of every shard at one instant.
type PlaneSnapshot struct {
	Attempt HistSnapshot
	Commit  HistSnapshot
	Grace   HistSnapshot
	Drain   HistSnapshot

	Aborts   [NumAbortReasons]uint64
	Counters [NumCounters]uint64
	PhaseNs  [NumCommitPhases]uint64
	PhaseN   [NumCommitPhases]uint64

	SampleN int
}

// Snapshot merges all shards into one plane-wide view.
func (p *Plane) Snapshot() PlaneSnapshot {
	out := PlaneSnapshot{SampleN: p.sampleN}
	for i := range p.shards {
		sh := &p.shards[i]
		a, c, g, d := sh.attempt.Snapshot(), sh.commit.Snapshot(), sh.grace.Snapshot(), sh.drain.Snapshot()
		out.Attempt.Merge(&a)
		out.Commit.Merge(&c)
		out.Grace.Merge(&g)
		out.Drain.Merge(&d)
		for r := 0; r < NumAbortReasons; r++ {
			out.Aborts[r] += sh.aborts[r].Load()
		}
		for c := 0; c < NumCounters; c++ {
			out.Counters[c] += sh.counters[c].Load()
		}
		for ph := 0; ph < NumCommitPhases; ph++ {
			out.PhaseNs[ph] += sh.phaseNs[ph].Load()
			out.PhaseN[ph] += sh.phaseN[ph].Load()
		}
	}
	return out
}

// AbortTotal sums the taxonomy over the per-attempt reasons only,
// excluding the MaxRetries escalation marker and explicit user aborts:
// the number of attempts that were retried.
func (s *PlaneSnapshot) AbortTotal() uint64 {
	var t uint64
	for r := 0; r < NumAbortReasons; r++ {
		if r == int(AbortMaxRetries) || r == int(AbortExplicit) {
			continue
		}
		t += s.Aborts[r]
	}
	return t
}

// Counts renders the runtime's event counts as the name-keyed map
// stm.Stats.Snapshot returns. Three keys are read off the grace
// histogram and the taxonomy — an event observed there is not counted
// a second time — so graceWaits counts grace waits that have ended.
// commits is CounterCommits, not the sampled commit histogram's count.
func (s *PlaneSnapshot) Counts() map[string]uint64 {
	out := map[string]uint64{
		"aborts":      s.AbortTotal(),
		"graceWaits":  s.Grace.Count,
		"irrevocable": s.Aborts[AbortMaxRetries],
	}
	for c, name := range counterNames {
		out[name] = s.Counters[c]
	}
	return out
}

// LatencySummaries renders the four histograms as the standard
// quantile ladder, keyed for JSON (/v1/stats, BENCH cells).
func (s *PlaneSnapshot) LatencySummaries() map[string]Quantiles {
	return map[string]Quantiles{
		"attempt":       s.Attempt.Summary(),
		"commit":        s.Commit.Summary(),
		"graceWait":     s.Grace.Summary(),
		"combinerDrain": s.Drain.Summary(),
	}
}

// AbortCounts renders the taxonomy as a name-keyed map.
func (s *PlaneSnapshot) AbortCounts() map[string]uint64 {
	out := make(map[string]uint64, NumAbortReasons)
	for r := 0; r < NumAbortReasons; r++ {
		out[AbortReason(r).String()] = s.Aborts[r]
	}
	return out
}
