package tune

import (
	"strings"
	"testing"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/metrics"
	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

// commit runs n uncontended single-word transactions on rt: real
// traffic for the plane the tuner windows.
func commit(rt *stm.Runtime, n int) {
	r := rng.New(1)
	for i := 0; i < n; i++ {
		_ = rt.AtomicWorker(0, r, func(tx *stm.Tx) error { tx.Store(0, uint64(i)); return nil })
	}
}

// TestWindowOf checks the window arithmetic: every field is the
// difference of two snapshots of one plane, so traffic before the
// first snapshot never leaks into the window.
func TestWindowOf(t *testing.T) {
	p := metrics.NewPlane(2, 0)
	observe := func(n int, graceNs, durNs int64) {
		for i := 0; i < n; i++ {
			sh := p.Shard(i) // spread over both shards: windows read the merge
			sh.ObserveGrace(graceNs)
			sh.ObserveCommits([]int64{durNs}, []int64{durNs})
			sh.Add(metrics.CounterKills, 2)
		}
	}
	observe(10, 100, 1000)
	prev := p.Snapshot()
	observe(4, 50, 8000)
	cur := p.Snapshot()

	w := windowOf(&cur, &prev, 2*time.Second)
	if w.Commits != 4 || w.DurNs != 32000 || w.GraceWaitNs != 200 || w.KillsIssued != 8 {
		t.Fatalf("window = %+v", w)
	}
	if got := w.GraceFrac(); got != 200.0/32000 {
		t.Fatalf("GraceFrac = %v, want %v", got, 200.0/32000)
	}
	if got := w.CommitsPerSec(); got != 2 {
		t.Fatalf("CommitsPerSec = %v, want 2", got)
	}
	for _, q := range []float64{w.CommitP50Ns, w.CommitP99Ns} {
		if q < 8000*(1-1.0/16) || q > 8000*(1+1.0/16) {
			t.Fatalf("windowed quantiles = %v/%v, want ~8000 (the earlier 1000ns commits are outside the window)",
				w.CommitP50Ns, w.CommitP99Ns)
		}
	}
	if idle := windowOf(&cur, &cur, time.Second); idle != (Window{Elapsed: time.Second}) {
		t.Fatalf("idle window = %+v, want zero", idle)
	}
}

// activeWindow is a Window busy enough to pass the MinWindowCommits
// gate, with conflict evidence so the regime rules engage.
func activeWindow(graceFrac float64) Window {
	const dur = 1_000_000
	return Window{
		Commits:     1000,
		GraceWaitNs: int64(graceFrac * dur),
		DurNs:       dur,
		Elapsed:     time.Second,
	}
}

func basePolicy() stm.Policy {
	return stm.Policy{Resolution: core.RequestorAborts, KWindow: 64, BackoffFactor: 1}
}

func TestControllerThinWindowSkipped(t *testing.T) {
	c := NewController(Limits{})
	w := activeWindow(0.1)
	w.Commits = 10 // below MinWindowCommits
	p, reasons := c.Decide(w, 5, true, basePolicy())
	if len(reasons) != 0 || p != basePolicy() {
		t.Fatalf("thin window decided: %v", reasons)
	}
}

func TestControllerBootstrapsEstimator(t *testing.T) {
	c := NewController(Limits{})
	cur := basePolicy()
	cur.KWindow = 0
	p, reasons := c.Decide(activeWindow(0.1), 0, true, cur)
	if p.KWindow != DefaultLimits().KWindowMin {
		t.Fatalf("KWindow = %d, want %d", p.KWindow, DefaultLimits().KWindowMin)
	}
	if len(reasons) != 1 || !strings.Contains(reasons[0], "bootstrap") {
		t.Fatalf("reasons = %v", reasons)
	}
}

func TestControllerRegimeFlip(t *testing.T) {
	c := NewController(Limits{})

	// Long chains: flip RA -> RW.
	p, reasons := c.Decide(activeWindow(0.1), 3.0, true, basePolicy())
	if p.Resolution != core.RequestorWins || p.Strategy == nil || p.Strategy.Name() != "RRW" {
		t.Fatalf("k=3.0 policy = %s, want requestor-wins/RRW (%v)", p, reasons)
	}

	// Pair conflicts: flip RW -> RA.
	cur := basePolicy()
	cur.Resolution = core.RequestorWins
	p, _ = c.Decide(activeWindow(0.1), 2.0, true, cur)
	if p.Resolution != core.RequestorAborts || p.Strategy == nil || p.Strategy.Name() != "RRA" {
		t.Fatalf("k=2.0 policy = %s, want requestor-aborts/RRA", p)
	}

	// Hysteresis band: k between KLow and KHigh keeps the current
	// choice, in both directions.
	for _, res := range []core.Policy{core.RequestorAborts, core.RequestorWins} {
		cur := basePolicy()
		cur.Resolution = res
		p, reasons := c.Decide(activeWindow(0.1), 2.35, true, cur)
		if p.Resolution != res {
			t.Fatalf("k=2.35 flipped %v -> %v (%v)", res, p.Resolution, reasons)
		}
	}

	// No conflict evidence in the window: a 0 estimate must not force
	// a flip.
	w := activeWindow(0)
	w.GraceWaitNs, w.KillsIssued = 0, 0
	cur = basePolicy()
	cur.Resolution = core.RequestorWins
	p, _ = c.Decide(w, 0, true, cur)
	if p.Resolution != core.RequestorWins {
		t.Fatal("idle window flipped the resolution policy")
	}
}

func TestControllerBatchLane(t *testing.T) {
	c := NewController(Limits{})

	// Heavy grace waiting on a lazy runtime opens the lane.
	p, reasons := c.Decide(activeWindow(0.5), 2.35, true, basePolicy())
	if p.CommitBatch != DefaultLimits().BatchSize {
		t.Fatalf("CommitBatch = %d, want %d (%v)", p.CommitBatch, DefaultLimits().BatchSize, reasons)
	}

	// Contention gone: close it.
	cur := basePolicy()
	cur.CommitBatch = 4
	p, _ = c.Decide(activeWindow(0.01), 2.35, true, cur)
	if p.CommitBatch != 0 {
		t.Fatalf("CommitBatch = %d after contention dropped, want 0", p.CommitBatch)
	}

	// In between: hold.
	cur.CommitBatch = 4
	p, reasons = c.Decide(activeWindow(0.1), 2.35, true, cur)
	if p.CommitBatch != 4 || len(reasons) != 0 {
		t.Fatalf("mid-band changed lane: %d (%v)", p.CommitBatch, reasons)
	}

	// Eager runtimes never get a lane.
	p, _ = c.Decide(activeWindow(0.5), 2.35, false, basePolicy())
	if p.CommitBatch != 0 {
		t.Fatal("controller opened a combiner lane on an eager runtime")
	}
}

func TestControllerKWindowResize(t *testing.T) {
	c := NewController(Limits{})

	// Four noisy window means: grow.
	var p stm.Policy
	for i, k := range []float64{2.3, 4.5, 2.3, 4.5} {
		p, _ = c.Decide(activeWindow(0.1), k, true, basePolicy())
		if i < 3 && p.KWindow != 64 {
			t.Fatalf("resized after only %d samples", i+1)
		}
	}
	if p.KWindow != 128 {
		t.Fatalf("KWindow = %d after noisy means, want 128", p.KWindow)
	}

	// Four near-identical means on a large window: shrink.
	c = NewController(Limits{})
	cur := basePolicy()
	cur.KWindow = 256
	for _, k := range []float64{2.35, 2.36, 2.35, 2.36} {
		p, _ = c.Decide(activeWindow(0.1), k, true, cur)
	}
	if p.KWindow != 128 {
		t.Fatalf("KWindow = %d after stable means, want 128", p.KWindow)
	}

	// Never below the floor.
	c = NewController(Limits{})
	cur.KWindow = DefaultLimits().KWindowMin
	for _, k := range []float64{2.35, 2.36, 2.35, 2.36} {
		p, _ = c.Decide(activeWindow(0.1), k, true, cur)
	}
	if p.KWindow != DefaultLimits().KWindowMin {
		t.Fatalf("KWindow = %d, shrank below the floor", p.KWindow)
	}
}

// latWindow is an activeWindow carrying synthetic commit-latency
// quantiles, with grace fraction and k pinned inside both hysteresis
// bands so only the p99 rule can fire.
func latWindow(p99 float64, commits uint64) Window {
	w := activeWindow(0.1)
	w.Commits = commits
	w.CommitP50Ns = p99 / 2
	w.CommitP99Ns = p99
	return w
}

func TestControllerP99Backoff(t *testing.T) {
	const kMid = 2.35 // inside the KLow..KHigh band: no regime flip

	// Degraded tail with flat throughput halves an open lane.
	c := NewController(Limits{})
	cur := basePolicy()
	cur.CommitBatch = 8
	for i := 0; i < 3; i++ { // seed the baseline, then hold steady
		p, reasons := c.Decide(latWindow(100_000, 1000), kMid, true, cur)
		if len(reasons) != 0 || p != cur {
			t.Fatalf("stable window %d decided: %v", i, reasons)
		}
	}
	p, reasons := c.Decide(latWindow(400_000, 1000), kMid, true, cur)
	if len(reasons) != 1 || !strings.Contains(reasons[0], "p99") {
		t.Fatalf("degraded window reasons = %v, want one p99 reason", reasons)
	}
	if p.CommitBatch != 4 {
		t.Fatalf("CommitBatch = %d after p99 backoff, want 4", p.CommitBatch)
	}
	// The rule re-baselined: the same degraded window seeds a fresh
	// baseline instead of firing again.
	if _, reasons := c.Decide(latWindow(400_000, 1000), kMid, true, p); len(reasons) != 0 {
		t.Fatalf("re-baseline failed, fired twice: %v", reasons)
	}

	// A throughput gain above the flat tolerance vetoes the rule:
	// the tail is paying for itself in commits.
	c = NewController(Limits{})
	c.Decide(latWindow(100_000, 1000), kMid, true, cur)
	p, reasons = c.Decide(latWindow(400_000, 2000), kMid, true, cur)
	if len(reasons) != 0 || p != cur {
		t.Fatalf("p99 rule fired despite 2x throughput: %v", reasons)
	}

	// Without an open lane the actuator is the grace budget: double
	// CleanupCost from the 64µs floor, capped at CleanupCostMax.
	c = NewController(Limits{})
	unbatched := basePolicy()
	c.Decide(latWindow(100_000, 1000), kMid, true, unbatched)
	p, reasons = c.Decide(latWindow(400_000, 1000), kMid, true, unbatched)
	if len(reasons) != 1 || !strings.Contains(reasons[0], "p99") {
		t.Fatalf("unbatched degraded window reasons = %v", reasons)
	}
	if p.CleanupCost != 64*time.Microsecond {
		t.Fatalf("CleanupCost = %v, want 64µs floor", p.CleanupCost)
	}
	c = NewController(Limits{})
	unbatched.CleanupCost = 400 * time.Microsecond
	c.Decide(latWindow(100_000, 1000), kMid, true, unbatched)
	p, _ = c.Decide(latWindow(400_000, 1000), kMid, true, unbatched)
	if p.CleanupCost != DefaultLimits().CleanupCostMax {
		t.Fatalf("CleanupCost = %v, want cap %v", p.CleanupCost, DefaultLimits().CleanupCostMax)
	}
	// Already at the cap: nothing left to actuate, no decision.
	c = NewController(Limits{})
	unbatched.CleanupCost = DefaultLimits().CleanupCostMax
	c.Decide(latWindow(100_000, 1000), kMid, true, unbatched)
	if _, reasons := c.Decide(latWindow(400_000, 1000), kMid, true, unbatched); len(reasons) != 0 {
		t.Fatalf("decided at the actuator cap: %v", reasons)
	}

	// A window whose quantiles are zero (no histogram feed) must
	// neither fire nor disturb the baselines.
	c = NewController(Limits{})
	c.Decide(latWindow(100_000, 1000), kMid, true, cur)
	c.Decide(activeWindow(0.1), kMid, true, cur) // quantile-free window
	p, reasons = c.Decide(latWindow(400_000, 1000), kMid, true, cur)
	if len(reasons) != 1 || p.CommitBatch != 4 {
		t.Fatalf("quantile-free window disturbed the baseline: %v", reasons)
	}
}

// adaptiveRuntime is a lazy runtime with no tracer installed — all a
// Tuner needs.
func adaptiveRuntime(adjust func(*stm.Config)) *stm.Runtime {
	cfg := stm.DefaultConfig()
	cfg.Lazy = true
	if adjust != nil {
		adjust(&cfg)
	}
	return stm.New(64, cfg)
}

// TestTunerStepWindowsThePlane drives Step end to end on real
// traffic: the Tuner differences the runtime's own plane, so commits
// made before the Tuner existed are outside its first window, a busy
// window reaches the Controller (whose first move is to open the k
// estimator), and an idle window decides nothing.
func TestTunerStepWindowsThePlane(t *testing.T) {
	rt := adaptiveRuntime(nil)
	commit(rt, 1000) // before New: must not count
	tn := New(rt, Limits{}, time.Hour)
	if tn.Step() {
		t.Fatal("Step decided on traffic older than the Tuner")
	}
	commit(rt, 1000)
	if !tn.Step() {
		t.Fatal("Step made no decision on a busy window")
	}
	if got := rt.Policy().KWindow; got != DefaultLimits().KWindowMin {
		t.Fatalf("KWindow = %d after bootstrap, want %d", got, DefaultLimits().KWindowMin)
	}
	if tn.Step() {
		t.Fatal("Step decided on an idle window")
	}
}

// TestTunerStepP99Decision replays a commit-p99 blowout through the
// tuner: the Controller sees the windowed p99 collapse and the
// runtime's policy lane is halved. A huge flat tolerance removes the
// throughput veto.
func TestTunerStepP99Decision(t *testing.T) {
	rt := adaptiveRuntime(func(c *stm.Config) { c.KWindow, c.CommitBatch = 64, 8 })
	tn := New(rt, Limits{P99FlatTol: 1e9}, time.Hour)

	for i := 0; i < 2; i++ { // seeds the p99 baseline, then holds steady
		if tn.StepWindow(latWindow(1000, 1000)) {
			t.Fatalf("steady window %d produced a decision", i)
		}
	}
	if !tn.StepWindow(latWindow(16000, 1000)) { // 16x tail blowout
		t.Fatal("degraded window produced no decision")
	}
	if got := rt.Policy().CommitBatch; got != 4 {
		t.Fatalf("CommitBatch = %d after p99 decision, want 4", got)
	}
	ds := tn.Decisions()
	if len(ds) != 1 || !strings.Contains(strings.Join(ds[0].Reasons, " "), "p99") {
		t.Fatalf("decision log = %+v, want one p99 reason", ds)
	}
}

func TestTunerStepAppliesDecision(t *testing.T) {
	rt := adaptiveRuntime(func(c *stm.Config) { c.KWindow, c.Policy = 64, core.RequestorAborts })
	tn := New(rt, Limits{}, time.Hour)

	// Busy with heavy grace waiting — lane should open.
	if !tn.StepWindow(activeWindow(0.6)) {
		t.Fatal("no decision on a contended window")
	}
	if got := rt.Policy().CommitBatch; got != DefaultLimits().BatchSize {
		t.Fatalf("runtime CommitBatch = %d after step, want %d", got, DefaultLimits().BatchSize)
	}
	if rt.PolicySwaps() == 0 {
		t.Fatal("no policy swap recorded")
	}
	// The runtime itself is idle: its own window is below the commit
	// gate, no decision.
	if tn.Step() {
		t.Fatal("Step decided on an idle window")
	}

	v := tn.View()
	if len(v.Decisions) != 1 || !v.Auto {
		t.Fatalf("view = %+v", v)
	}
	if v.Policy != rt.Policy().String() {
		t.Fatalf("view policy %q != runtime policy %q", v.Policy, rt.Policy().String())
	}
}

func TestTunerOverrideAndResume(t *testing.T) {
	rt := adaptiveRuntime(nil)
	tn := New(rt, Limits{}, time.Hour)

	p := rt.Policy()
	p.Hybrid = true
	tn.Override(p)
	if !rt.Policy().Hybrid {
		t.Fatal("override not applied")
	}
	if v := tn.View(); v.Auto {
		t.Fatal("view still reports auto after override")
	}

	// While overridden, a busy window must not be acted on — neither
	// a replayed one nor the plane's own.
	commit(rt, 1000)
	if tn.StepWindow(activeWindow(0.6)) || tn.Step() {
		t.Fatal("decided while manually overridden")
	}

	tn.Resume()
	if v := tn.View(); !v.Auto {
		t.Fatal("view not auto after resume")
	}
	ds := tn.Decisions()
	if len(ds) != 2 {
		t.Fatalf("decision log has %d entries, want 2 (override + resume)", len(ds))
	}
	if ds[0].Seq >= ds[1].Seq {
		t.Fatal("decision sequence not increasing")
	}
}

func TestTunerStartStop(t *testing.T) {
	rt := adaptiveRuntime(nil)
	tn := New(rt, Limits{}, time.Millisecond)
	tn.Start()
	tn.Start() // idempotent
	// Keep committing until a tick's window is busy enough to decide.
	deadline := time.Now().Add(10 * time.Second)
	for rt.PolicySwaps() == 0 && time.Now().Before(deadline) {
		commit(rt, 1000)
	}
	tn.Stop()
	tn.Stop() // idempotent
	if rt.PolicySwaps() == 0 {
		t.Fatal("background loop never applied a decision")
	}
}
