// Package htm is a functional, cycle-level model of a hardware
// transactional memory built on a directory-based MSI coherence
// protocol with private L1 caches — the stand-in for the paper's
// Graphite-based HTM (Section 8.2).
//
// The model follows the paper's Algorithm 1: each L1 line carries a
// transactional bit; evicting a transactional line aborts the
// transaction; conflicts are detected when a remote coherence request
// (fetch or invalidation) reaches a transactional line. On conflict
// the receiving core consults a core.Strategy to pick a grace period:
// it delays its coherence response hoping to commit, and at the
// deadline either aborts itself (requestor-wins) or NACKs the
// requestor (requestor-aborts).
package htm

import (
	"txconflict/internal/core"
	"txconflict/internal/sim"
)

// Params configures a simulated machine.
type Params struct {
	// Cores is the number of cores (1..64).
	Cores int
	// L1Sets and L1Ways give the private L1 geometry.
	L1Sets, L1Ways int
	// NetLatency is the one-way message latency between a core and
	// the directory (and core-to-core forwards), in cycles.
	NetLatency sim.Time
	// L1Latency is the L1 hit latency in cycles.
	L1Latency sim.Time
	// DirLatency is the directory processing latency in cycles.
	DirLatency sim.Time
	// CommitLatency is the cost of a commit in cycles.
	CommitLatency sim.Time
	// AbortPenalty is the fixed cleanup cost of an abort in cycles
	// (the fixed part of the paper's abort cost B, footnote 1).
	AbortPenalty sim.Time
	// Rule is the conflict decision (core.Rule): resolution, the
	// Section 9 switch, strategy, mean profile and Corollary 2's
	// backoff, its B and MaxBackoffB in cycles. Its µ source is the
	// machine's profiler of committed transaction lengths (the profiler
	// of Section 1, "Extensions"). A nil Strategy is NO_DELAY.
	core.Rule
	// FixedChainK, when > 0, reports every conflict as a chain of
	// this length instead of using the directory's queue length
	// (ablation: "chain-length estimate").
	FixedChainK int
	// FixedB, when > 0, presents a constant abort cost B to the
	// strategy instead of elapsed+cleanup (ablation: "abort cost
	// estimate", paper footnote 1).
	FixedB float64
	// MeshDim, when > 0, arranges cores on a MeshDim x MeshDim grid
	// with the directory at the center tile; message latency becomes
	// NetLatency + HopLatency * manhattan distance (a Graphite-like
	// tiled topology). Zero keeps the uniform NetLatency.
	MeshDim int
	// HopLatency is the per-hop cost in mesh mode (default 2).
	HopLatency sim.Time
	// RestartBackoffBase is the base of the randomized exponential
	// backoff applied before an aborted transaction restarts:
	// uniform in [0, base·2^min(attempts,10)), capped by
	// MaxRestartBackoff. Zero disables backoff — which livelocks
	// convoy-prone workloads (all-readers-upgrade patterns like a
	// shared stack top) exactly as real HTMs do without retry
	// backoff.
	RestartBackoffBase sim.Time
	// MaxRestartBackoff caps the randomized restart backoff.
	MaxRestartBackoff sim.Time
	// Seed seeds all per-core random streams.
	Seed uint64
}

// DefaultParams returns a small but realistic configuration: 64-set,
// 4-way L1 (16 KiB), 15-cycle network hops, 3-cycle L1 hits.
func DefaultParams(cores int) Params {
	return Params{
		Cores:              cores,
		L1Sets:             64,
		L1Ways:             4,
		NetLatency:         15,
		L1Latency:          3,
		DirLatency:         5,
		CommitLatency:      10,
		AbortPenalty:       60,
		Rule:               core.Rule{Policy: core.RequestorWins, BackoffFactor: 1},
		RestartBackoffBase: 64,
		MaxRestartBackoff:  16384,
		Seed:               1,
	}
}

// validate normalizes and checks the parameters.
func (p *Params) validate() {
	if p.Cores <= 0 || p.Cores > 64 {
		panic("htm: Cores must be in 1..64 (directory uses a 64-bit sharer mask)")
	}
	if p.L1Sets == 0 {
		p.L1Sets = 64
	}
	if p.L1Ways == 0 {
		p.L1Ways = 4
	}
	if p.MeshDim > 0 && p.MeshDim*p.MeshDim < p.Cores {
		panic("htm: mesh too small for core count")
	}
	if p.HopLatency == 0 {
		p.HopLatency = 2
	}
}

// Metrics aggregates the outcome of a simulation run.
type Metrics struct {
	// Cycles is the simulated duration.
	Cycles sim.Time
	// Commits and Aborts count transaction outcomes across cores.
	Commits, Aborts uint64
	// Conflicts counts receiver-side conflict events.
	Conflicts uint64
	// GraceCommits counts receivers that committed during a grace
	// period (the delay paid off).
	GraceCommits uint64
	// NackAborts counts requestor aborts triggered by RA NACKs.
	NackAborts uint64
	// CapacityAborts counts aborts caused by transactional-line
	// eviction.
	CapacityAborts uint64
	// Messages counts coherence messages by kind.
	Messages map[string]uint64
	// PerCoreCommits records commits per core (fairness analysis).
	PerCoreCommits []uint64
	// MeanTxCycles is the profiler's final estimate of committed
	// transaction length.
	MeanTxCycles float64
}

// Throughput returns commits per million cycles.
func (m Metrics) Throughput() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Commits) / float64(m.Cycles) * 1e6
}

// OpsPerSecond converts throughput to operations per second at the
// simulator's 1 GHz convention (the paper's figures report ops/s).
func (m Metrics) OpsPerSecond() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Commits) / (float64(m.Cycles) / 1e9)
}

// AbortRate returns aborts per commit.
func (m Metrics) AbortRate() float64 {
	if m.Commits == 0 {
		return float64(m.Aborts)
	}
	return float64(m.Aborts) / float64(m.Commits)
}
