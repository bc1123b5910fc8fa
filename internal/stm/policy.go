package stm

import (
	"fmt"
	"time"

	"txconflict/internal/core"
)

// Policy is the dynamic half of the runtime's tuning surface: every
// knob that changes how conflicts are priced and resolved, but not
// how the arena is laid out. Config embeds the *initial* Policy for
// New; after that, Runtime.SetPolicy is the only mutation point and
// the commit/abort paths read the current Policy through one atomic
// pointer load per attempt — so an operator (txkvd's POST /v1/policy)
// can retune a running system without stopping it, and a runtime whose
// policy never changes pays nothing but that load.
//
// The structural half — arena size, Lazy vs eager locking,
// the Trace hook and the metrics plane — stays frozen in Config: those
// decide memory layout and descriptor shape and cannot be swapped under
// live transactions.
type Policy struct {
	// Rule is the conflict decision (core.Rule): resolution, the
	// Section 9 switch, strategy, mean profile and Corollary 2's
	// backoff, its B in nanoseconds. Its µ source is the metrics
	// plane's mean committed-block duration (metrics.Plane.ProfileMean),
	// read at the conflict: a sample mean over the 1-in-SampleN blocks
	// the plane times, 0 until the first sampled block commits.
	core.Rule
	// CommitBatch opens the lazy group-commit combiner lane (batch.go)
	// with the given batch bound: a committing transaction either
	// becomes its lane's combiner — acquiring the merged commit locks
	// once, validating and writing back up to CommitBatch queued write
	// sets with a single clock advance — or enqueues
	// its descriptor and waits for the combiner to stamp its outcome
	// into the packed state word. 0 closes it (direct commit path, the
	// ablation baseline). Ignored on eager runtimes, whose
	// encounter-time locks cannot be handed off at commit.
	CommitBatch int
	// FoldCommutative lets transactions record tx.Add calls as blind
	// delta-writes for the combiner to fold (escrow-style counters):
	// every delta to a hot word in one batch is admitted and applied
	// as a single summed update. Off, tx.Add lowers to the ordinary
	// load/store pair. Only meaningful while the combiner lane is
	// open (CommitBatch > 0 on a lazy runtime); inert otherwise, but
	// kept latched so a later SetPolicy can open the lane without
	// losing the setting.
	FoldCommutative bool
	// CleanupCost is the fixed component of the abort cost B; the
	// elapsed execution time is added per the paper's footnote 1.
	CleanupCost time.Duration
	// MaxRetries bounds optimistic retries before the irrevocable
	// slow path; 0 means never.
	MaxRetries int
}

// normalize clamps nonsense values the way New always has, so a
// SetPolicy caller cannot wedge the runtime.
func (p *Policy) normalize() {
	if p.BackoffFactor <= 0 {
		p.BackoffFactor = 1
	}
	if p.CommitBatch < 0 {
		p.CommitBatch = 0
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
}

// String renders the policy for reports and the decision log.
func (p Policy) String() string { return p.label("") }

// label is the one renderer of a policy: resolution ("Hybrid" under the
// Section 9 rule), strategy, then mode — a runtime's structural segment,
// "" for a bare policy — and the combiner settings.
func (p Policy) label(mode string) string {
	name := "NO_DELAY"
	if p.Strategy != nil {
		name = p.Strategy.Name()
	}
	s := p.Policy.String()
	if p.Hybrid {
		s = "Hybrid"
	}
	s += "/" + name
	if mode != "" {
		s += "/" + mode
	}
	if p.CommitBatch > 0 {
		s += fmt.Sprintf("/b%d", p.CommitBatch)
	}
	if p.FoldCommutative {
		s += "/fold"
	}
	return s
}

// SetPolicy atomically replaces the runtime's conflict policy. It is
// safe to call concurrently with running transactions and with other
// SetPolicy calls (the last store wins): in-flight attempts finish
// under the policy they latched at their start, and every later attempt
// reads the new one. Flipping CommitBatch to 0 lets queued combiner
// waiters drain themselves (a queued descriptor can always self-serve),
// so no commit is stranded by a swap.
func (rt *Runtime) SetPolicy(p Policy) {
	p.normalize()
	if !rt.lazy {
		// The combiner lane is a lazy-commit structure; keep the
		// reported policy truthful on eager runtimes.
		p.CommitBatch = 0
	}
	rt.pol.Store(&p)
	rt.polSwaps.Add(1)
}

// Policy returns the current conflict policy (a copy; mutate and
// SetPolicy to change the runtime).
func (rt *Runtime) Policy() Policy { return *rt.pol.Load() }

// PolicySwaps counts SetPolicy calls since construction — the
// control plane's own odometer, exposed so remote observers
// (/v1/stats) can tell an overridden runtime from a static one.
func (rt *Runtime) PolicySwaps() uint64 { return rt.polSwaps.Load() }
