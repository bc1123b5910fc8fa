package core

import (
	"fmt"
	"math"
	"strings"

	"txconflict/internal/rng"
)

// Rule is the paper's per-conflict decision, written once for every
// backend: which side is doomed (requestor wins, requestor aborts, or
// the Section 9 switch by chain length), the abort cost B it is priced
// at (footnote 1, backed off per Corollary 2), and the grace period the
// strategy grants. A backend embeds a Rule and supplies only the
// inputs, in its own time unit.
type Rule struct {
	// Policy selects requestor-wins or requestor-aborts resolution.
	Policy Policy
	// Hybrid overrides Policy per conflict with the Section 9 rule
	// (HybridPolicy): requestor-aborts for pair conflicts, requestor-wins
	// for longer chains. Pairs naturally with strategy.Hybrid, which
	// dispatches the optimal strategy for the policy applied.
	Hybrid bool
	// Strategy picks grace periods; nil means no grace (immediate
	// resolution, the NO_DELAY baseline).
	Strategy Strategy
	// UseMeanProfile hands the strategy the profiled mean transaction
	// length µ (the profiler of Section 1, "Extensions").
	UseMeanProfile bool
	// BackoffFactor multiplies the doomed transaction's B per abort it
	// has already suffered (Corollary 2); <= 1 disables backoff.
	BackoffFactor float64
	// MaxBackoffB caps the backed-off B; <= 0 means no cap.
	MaxBackoffB float64
}

// Side is one party to a conflict as the rule prices it.
type Side struct {
	// B is the base of its abort cost: the time it has run plus the
	// backend's fixed cleanup cost (footnote 1).
	B float64
	// Attempts counts its aborts so far, the exponent of Corollary 2's
	// backoff.
	Attempts int
}

// Decision records one conflict decision: the resolution applied, the
// chain length and abort cost the strategy saw, and the grace period
// it granted, in the caller's time unit.
type Decision struct {
	Policy Policy
	K      int
	B      float64
	Grace  float64
}

// MeanSource supplies the profiled mean µ in the caller's time unit.
type MeanSource interface {
	ProfileMean() float64
}

// MaxGrace caps every grace period, in the caller's time unit: one
// minute of nanoseconds. Strategies price delays against B, so this is
// far beyond any useful grace, but it keeps a misbehaving strategy's
// +Inf or overflowing answer finite and convertible to an integer time.
const MaxGrace = 6e10

// HybridPolicy is the Section 9 rule: requestor-aborts for pair
// conflicts (k <= 2), whose optimal ratio e/(e-1) beats
// requestor-wins' 2, and requestor-wins for longer chains, where
// k^{k-1}/S beats e^{1/(k-1)}/(e^{1/(k-1)}-1).
func HybridPolicy(k int) Policy {
	if k <= 2 {
		return RequestorAborts
	}
	return RequestorWins
}

// Decide resolves one conflict of chain length k (k < 2 counts as 2)
// between the receiver holding the contended data and the requestor
// asking for it. B is the doomed side's base — the receiver's under
// requestor wins, the requestor's under requestor aborts — floored at 1
// and backed off by its attempts. mean is read only when UseMeanProfile
// is set, and the strategy's one Delay call draws from rnd; with no
// strategy the grace is 0 and neither is touched.
func (r *Rule) Decide(k int, receiver, requestor Side, mean MeanSource, rnd *rng.Rand) Decision {
	if k < 2 {
		k = 2
	}
	d := Decision{Policy: r.Policy, K: k}
	if r.Hybrid {
		d.Policy = HybridPolicy(k)
	}
	doomed := receiver
	if d.Policy == RequestorAborts {
		doomed = requestor
	}
	d.B = doomed.B
	if d.B <= 0 {
		d.B = 1
	}
	d.B = backoffB(d.B, doomed.Attempts, r.BackoffFactor, r.MaxBackoffB)
	if r.Strategy == nil {
		return d
	}
	c := Conflict{Policy: d.Policy, K: k, B: d.B}
	if r.UseMeanProfile {
		c.Mean = mean.ProfileMean()
	}
	// A strategy may hand back anything: NaN or a non-positive delay is
	// no grace at all, and the cap keeps the caller's integer
	// conversion defined.
	if x := r.Strategy.Delay(c, rnd); x > 0 {
		d.Grace = math.Min(x, MaxGrace)
	}
	return d
}

// backoffB is the multiplicative progress mechanism of Corollary 2:
// after `attempts` aborts the abort cost grows to b·factor^attempts,
// making the transaction ever less likely to be sacrificed. The result
// saturates at maxB (<= 0: no cap); factor <= 1 leaves b untouched.
func backoffB(b float64, attempts int, factor, maxB float64) float64 {
	if factor <= 1 {
		return b
	}
	if maxB <= 0 {
		maxB = math.Inf(1)
	}
	for i := 0; i < attempts && b < maxB; i++ {
		b *= factor
	}
	return math.Min(b, maxB)
}

// ParsePolicy resolves a resolution name, case-insensitively: rw or
// requestorwins, ra or requestoraborts.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "rw", "requestorwins":
		return RequestorWins, nil
	case "ra", "requestoraborts":
		return RequestorAborts, nil
	}
	return 0, fmt.Errorf("unknown resolution %q (want rw, ra, requestorwins or requestoraborts)", s)
}
