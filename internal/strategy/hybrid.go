package strategy

import (
	"math"

	"txconflict/internal/core"
	"txconflict/internal/rng"
)

// Hybrid realizes the strategy suggested in the paper's discussion
// (Sections 5.3 and 9): requestor-aborts is more efficient for
// two-transaction conflicts, requestor-wins for longer chains, so a
// system that can choose per conflict should alternate between the
// two. The choice of policy is the conflict rule's (core.HybridPolicy
// under core.Rule.Hybrid); Hybrid prices the grace for whichever
// policy the conflict carries with that policy's optimal strategy
// (mean-constrained when µ is known), so the grace always matches the
// resolution actually applied.
type Hybrid struct{}

// Name implements core.Strategy.
func (Hybrid) Name() string { return "HYBRID" }

// Delay dispatches to the optimal strategy for the conflict's policy.
func (Hybrid) Delay(c core.Conflict, r *rng.Rand) float64 {
	return ForPolicy(c.Policy, c.Mean > 0).Delay(c, r)
}

// Ratio returns the analytic ratio of the dispatched strategy.
func (Hybrid) Ratio(c core.Conflict) float64 {
	return ForPolicy(c.Policy, c.Mean > 0).(Analytic).Ratio(c)
}

// AttemptBound returns Corollary 2's attempt bound
// log2(y) + log2(γ) + log2(k) - log2(B) + 2 (rounded up, at least 1):
// a transaction of length y that encounters γ conflicts commits
// within this many attempts with probability at least 1/2 under
// multiplicative backoff.
func AttemptBound(y, gamma float64, k int, b float64) int {
	v := math.Log2(y) + math.Log2(gamma) + math.Log2(float64(k)) - math.Log2(b) + 2
	n := int(math.Ceil(v))
	if n < 1 {
		n = 1
	}
	return n
}

// ForPolicy returns the paper's optimal strategy for a policy:
// mean-constrained when µ > 0 is carried by the conflict, otherwise
// the unconstrained optimum.
func ForPolicy(p core.Policy, mean bool) core.Strategy {
	switch {
	case p == core.RequestorAborts && mean:
		return MeanRA{}
	case p == core.RequestorAborts:
		return ExpRA{}
	case mean:
		return MeanRW{}
	default:
		return GeneralRW{}
	}
}
