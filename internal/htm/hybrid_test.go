package htm

import (
	"math"
	"testing"

	ccore "txconflict/internal/core"
	"txconflict/internal/rng"
	"txconflict/internal/sim"
	"txconflict/internal/strategy"
)

func TestHybridPolicySerializability(t *testing.T) {
	p := DefaultParams(8)
	p.Hybrid = true
	p.Strategy = strategy.Hybrid{}
	m := NewMachine(p, counterWorkload(40, 5))
	m.Run(300000)
	met := m.Drain()
	if met.Commits == 0 {
		t.Fatal("no commits under hybrid policy")
	}
	if got := m.Dir.ReadWord(0); got != uint64(met.Commits) {
		t.Fatalf("hybrid run lost updates: %d vs %d", got, met.Commits)
	}
	if err := m.checkCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestHybridUsesBothResolutions(t *testing.T) {
	// Heavy contention produces both pair conflicts (k=2 -> RA ->
	// NACK aborts) and chains (k>2 -> RW -> receiver aborts), so a
	// hybrid run should show NACK aborts and other aborts.
	p := DefaultParams(12)
	p.Hybrid = true
	p.Strategy = strategy.Hybrid{}
	m := NewMachine(p, counterWorkload(60, 0))
	met := m.Run(500000)
	if met.NackAborts == 0 {
		t.Error("hybrid never used requestor-aborts resolution")
	}
	if met.Aborts <= met.NackAborts+met.CapacityAborts {
		t.Error("hybrid never used requestor-wins resolution")
	}
}

// TestPolicyForRule: the resolution a core arms comes from the rule
// Params embeds — the Section 9 switch under Hybrid, the configured
// policy otherwise.
func TestPolicyForRule(t *testing.T) {
	policy := func(p Params, k int) ccore.Policy {
		m := NewMachine(p, counterWorkload(1, 1))
		return m.P.Decide(k, ccore.Side{B: 1}, ccore.Side{B: 1}, m, m.Cores[0].rng).Policy
	}
	p := DefaultParams(2)
	p.Hybrid = true
	if policy(p, 2) != ccore.RequestorAborts {
		t.Fatal("k=2 should be requestor aborts")
	}
	if policy(p, 3) != ccore.RequestorWins {
		t.Fatal("k=3 should be requestor wins")
	}
	p2 := DefaultParams(2)
	p2.Policy = ccore.RequestorAborts
	if policy(p2, 5) != ccore.RequestorAborts {
		t.Fatal("non-hybrid must keep the configured policy")
	}
}

// stubStrategy answers every conflict with one fixed delay.
type stubStrategy float64

func (s stubStrategy) Delay(ccore.Conflict, *rng.Rand) float64 { return float64(s) }
func (s stubStrategy) Name() string                            { return "STUB" }

// TestGraceDelayClamps: whatever float a strategy returns, the grace a
// core arms is a cycle count the kernel can schedule.
func TestGraceDelayClamps(t *testing.T) {
	maxGrace := sim.Time(ccore.MaxGrace)
	for _, c := range []struct {
		x    float64
		want sim.Time
	}{
		{math.NaN(), 0},
		{math.Inf(-1), 0},
		{-1, 0},
		{0, 0},
		{0.5, 0},
		{37.9, 37},
		{math.Inf(1), maxGrace},
		{1e300, maxGrace},
	} {
		p := DefaultParams(2)
		p.Strategy = stubStrategy(c.x)
		m := NewMachine(p, counterWorkload(1, 1))
		d := m.P.Decide(2, ccore.Side{B: 1}, ccore.Side{B: 1}, m, m.Cores[0].rng)
		if got := sim.Time(d.Grace); got != c.want {
			t.Errorf("strategy delay %v: grace %d, want %d", c.x, got, c.want)
		}
	}
}

func TestFixedBAblation(t *testing.T) {
	p := DefaultParams(8)
	p.Strategy = strategy.UniformRW{}
	p.FixedB = 500
	m := NewMachine(p, counterWorkload(40, 5))
	m.Run(300000)
	met := m.Drain()
	if met.Commits == 0 {
		t.Fatal("no commits with FixedB")
	}
	if got := m.Dir.ReadWord(0); got != uint64(met.Commits) {
		t.Fatalf("FixedB run lost updates: %d vs %d", got, met.Commits)
	}
}

func TestMeshTopology(t *testing.T) {
	p := DefaultParams(8)
	p.MeshDim = 3 // 3x3 grid, 8 cores + center directory
	p.Strategy = strategy.UniformRW{}
	m := NewMachine(p, counterWorkload(40, 5))
	// Latency sanity: the center tile (core 4 at (1,1)) is closest.
	if m.coreDirLatency(4) != p.NetLatency {
		t.Fatalf("center tile latency %d, want %d", m.coreDirLatency(4), p.NetLatency)
	}
	if m.coreDirLatency(0) != m.P.NetLatency+2*m.P.HopLatency {
		t.Fatalf("corner tile latency %d", m.coreDirLatency(0))
	}
	m.Run(300000)
	met := m.Drain()
	if met.Commits == 0 {
		t.Fatal("no commits on mesh")
	}
	if got := m.Dir.ReadWord(0); got != uint64(met.Commits) {
		t.Fatalf("mesh run lost updates: %d vs %d", got, met.Commits)
	}
	if err := m.checkCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestMeshTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undersized mesh accepted")
		}
	}()
	p := DefaultParams(16)
	p.MeshDim = 3 // 9 tiles < 16 cores
	NewMachine(p, counterWorkload(1, 1))
}

func TestMeshUniformWhenDisabled(t *testing.T) {
	p := DefaultParams(4)
	m := NewMachine(p, counterWorkload(1, 1))
	for i := 0; i < 4; i++ {
		if m.coreDirLatency(i) != p.NetLatency {
			t.Fatalf("core %d latency %d without mesh", i, m.coreDirLatency(i))
		}
	}
}
