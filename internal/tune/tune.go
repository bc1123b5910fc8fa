// Package tune closes the measurement→policy loop online: it watches
// a running stm.Runtime through its metrics plane and retunes the
// runtime's stm.Policy while transactions keep flowing.
//
// The package is the control plane the paper's offline analysis
// implies but never builds. Sections 5–8 derive, per conflict regime,
// which resolution policy and grace-period strategy win; Section 9
// reduces the choice to a rule over the conflict-chain length k
// (requestor-aborts for pair conflicts, requestor-wins for longer
// chains). Those results assume the regime is known. tune estimates
// the regime live — windowed commit and kill counts, grace-wait time,
// commit-latency quantiles and the runtime's windowed k estimate —
// and walks the policy toward the regime's winner with enough
// hysteresis that a noisy boundary does not thrash the runtime.
//
// Three pieces, smallest first:
//
//   - Window (this file): one control interval of observed behaviour,
//     the difference of two metrics.PlaneSnapshots of the tuned
//     runtime — commits, kills, grace-wait and commit time, and the
//     windowed commit-latency quantiles. The runtime's plane is always
//     on, so the loop needs no tracer and adds nothing to the
//     transaction path.
//   - Controller (controller.go): pure decision logic. Given a
//     Window, the current k estimate and the current Policy, Decide
//     returns the next Policy plus human-readable reasons — or no
//     change. All thresholds live in Limits. The p99 rule is the
//     tail-aware half: when windowed commit p99 degrades against its
//     EWMA baseline while throughput stays flat, it backs off the
//     group-commit lane (or widens the grace budget) — latency pain
//     with no throughput payoff means the batch is queueing, not
//     amortizing.
//   - Tuner (tuner.go): the loop. A goroutine (or an explicit Step
//     call) snapshots the runtime's plane, asks the Controller,
//     applies the result via Runtime.SetPolicy, and appends to a
//     bounded decision log that /v1/policy renders.
package tune

import (
	"time"

	"txconflict/internal/metrics"
)

// Window is one control interval of observed behaviour — what the
// runtime's metrics plane counted between two snapshots — plus the
// wall time it covers. Rates alone cannot see a tail collapse: a
// batching knob can hold throughput flat while pushing p99 out an
// order of magnitude, which is the regression the windowed quantiles
// exist to catch.
type Window struct {
	// Commits is the number of blocks that committed in the window;
	// DurNs is their total wall time, first attempt to commit.
	Commits uint64
	DurNs   int64
	// GraceWaitNs is the time requestors spent in grace waits that
	// ended in the window; KillsIssued the receivers they killed.
	GraceWaitNs int64
	KillsIssued uint64
	Elapsed     time.Duration

	// CommitP50Ns and CommitP99Ns are the commit-latency quantiles of
	// the window's commits in nanoseconds (0 when nothing committed).
	CommitP50Ns, CommitP99Ns float64
}

// windowOf returns the window from prev to cur, two snapshots of one
// plane taken elapsed apart.
func windowOf(cur, prev *metrics.PlaneSnapshot, elapsed time.Duration) Window {
	commit := cur.Commit.Sub(prev.Commit)
	return Window{
		Commits:     commit.Count,
		DurNs:       int64(commit.Sum),
		GraceWaitNs: int64(cur.Grace.Sum - prev.Grace.Sum),
		KillsIssued: cur.Counters[metrics.CounterKills] - prev.Counters[metrics.CounterKills],
		Elapsed:     elapsed,
		CommitP50Ns: commit.Quantile(0.50),
		CommitP99Ns: commit.Quantile(0.99),
	}
}

// GraceFrac is grace-wait time over committed-block time in the
// window — the controller's proxy for lock contention at and before
// commit. 0 when idle.
func (w Window) GraceFrac() float64 {
	if w.DurNs <= 0 {
		return 0
	}
	f := float64(w.GraceWaitNs) / float64(w.DurNs)
	if f < 0 {
		return 0
	}
	return f
}

// CommitsPerSec is window commit throughput.
func (w Window) CommitsPerSec() float64 {
	if w.Elapsed <= 0 {
		return 0
	}
	return float64(w.Commits) / w.Elapsed.Seconds()
}
