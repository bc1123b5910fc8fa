package stm

import (
	"fmt"
	"time"

	"txconflict/internal/core"
)

// Policy is the dynamic half of the runtime's tuning surface: every
// knob that changes how conflicts are priced and resolved, but not
// how the arena is laid out. Config carries the *initial* Policy
// into New; after that, Runtime.SetPolicy is the only mutation point
// and the commit/abort paths read the current Policy through one
// atomic pointer load per attempt — so an operator (txkvd's POST
// /v1/policy) can retune a running system without stopping it, and a
// runtime whose policy never changes pays nothing but that load.
//
// The structural half — arena size, Shards, Lazy vs eager locking,
// the Trace hook — stays frozen in Config: those decide memory
// layout and descriptor shape and cannot be swapped under live
// transactions.
type Policy struct {
	// Resolution selects requestor-wins or requestor-aborts
	// resolution (Config.Policy at construction time).
	Resolution core.Policy
	// Hybrid overrides Resolution per conflict with the paper's
	// Section 9 rule: requestor-aborts for pair conflicts (k = 2),
	// requestor-wins for longer chains.
	Hybrid bool
	// Strategy picks grace periods; nil means no grace (immediate
	// resolution, the NO_DELAY baseline).
	Strategy core.Strategy
	// KWindow sizes the windowed conflict-chain estimator; 0 keeps
	// the instantaneous 2 + waiters estimate. Resizing swaps in a
	// fresh (empty) window.
	KWindow int
	// CommitBatch opens the lazy group-commit combiner lane with the
	// given batch bound; 0 closes it (direct commit path). Ignored
	// on eager runtimes, whose encounter-time locks cannot be handed
	// off at commit.
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
	// UseMeanProfile feeds the profiled mean committed-transaction
	// duration to the strategy.
	UseMeanProfile bool
	// CleanupCost is the fixed component of the abort cost B.
	CleanupCost time.Duration
	// BackoffFactor multiplies B per abort of the same transaction
	// (Corollary 2); <= 1 disables.
	BackoffFactor float64
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
	if p.KWindow < 0 {
		p.KWindow = 0
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
}

// resolutionFor returns the per-conflict resolution (Section 9
// hybrid rule when enabled).
func (p *Policy) resolutionFor(k int) core.Policy {
	if !p.Hybrid {
		return p.Resolution
	}
	if k <= 2 {
		return core.RequestorAborts
	}
	return core.RequestorWins
}

// String renders the policy for reports and the decision log.
func (p Policy) String() string {
	name := "NO_DELAY"
	if p.Strategy != nil {
		name = p.Strategy.Name()
	}
	res := p.Resolution.String()
	if p.Hybrid {
		res = "Hybrid"
	}
	s := fmt.Sprintf("%s/%s", res, name)
	if p.KWindow > 0 {
		s += fmt.Sprintf("/kw%d", p.KWindow)
	}
	if p.CommitBatch > 0 {
		s += fmt.Sprintf("/b%d", p.CommitBatch)
	}
	if p.FoldCommutative {
		s += "/fold"
	}
	return s
}

// policy extracts the dynamic half of a construction-time Config.
func (c Config) policy() Policy {
	return Policy{
		Resolution:      c.Policy,
		Hybrid:          c.HybridPolicy,
		Strategy:        c.Strategy,
		KWindow:         c.KWindow,
		CommitBatch:     c.CommitBatch,
		FoldCommutative: c.FoldCommutative,
		UseMeanProfile:  c.UseMeanProfile,
		CleanupCost:     c.CleanupCost,
		BackoffFactor:   c.BackoffFactor,
		MaxRetries:      c.MaxRetries,
	}
}

// SetPolicy atomically replaces the runtime's conflict policy. It is
// safe to call concurrently with running transactions: in-flight
// attempts finish under the policy they latched at their start, and
// every later attempt reads the new one. Resizing KWindow swaps in a
// fresh estimator window; flipping CommitBatch to 0 lets queued
// combiner waiters drain themselves (a queued descriptor can always
// self-serve), so no commit is stranded by a swap. Concurrent calls
// serialize, so the installed estimator ring always matches the stored
// policy's KWindow.
func (rt *Runtime) SetPolicy(p Policy) {
	p.normalize()
	if !rt.lazy {
		// The combiner lane is a lazy-commit structure; keep the
		// reported policy truthful on eager runtimes.
		p.CommitBatch = 0
	}
	rt.polMu.Lock()
	defer rt.polMu.Unlock()
	cur := rt.kEst.Load()
	curWindow := 0
	if cur != nil {
		curWindow = len(cur.ring)
	}
	if p.KWindow != curWindow {
		if p.KWindow > 0 {
			rt.kEst.Store(newKEstimator(p.KWindow))
		} else {
			rt.kEst.Store(nil)
		}
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
