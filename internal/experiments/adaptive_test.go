package experiments

import (
	"testing"
	"time"
)

// TestAdaptiveConvergenceSmoke runs the phase-shift experiment at CI
// scale. Assertions are structural, not performance claims: the
// convergence ratio itself is machine- and load-dependent (CI
// containers are often single-core, where no contention arises and
// the controller rightly does nothing), so the test verifies the
// harness's plumbing — every phase measured, oracle picked, ratios
// computed, first-phase invariant checked inside the harness — and
// asserts no ratio threshold; recorded numbers come from the ledger
// (`bash bench/run.sh`, bench/README.md).
func TestAdaptiveConvergenceSmoke(t *testing.T) {
	dur := 160 * time.Millisecond
	if testing.Short() {
		dur = 60 * time.Millisecond
	}
	rep, err := AdaptiveConvergence(AdaptiveConfig{
		Goroutines:    2,
		PhaseDuration: dur,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("got %d phases, want 2 (readmostly, hotspot)", len(rep.Phases))
	}
	for _, pr := range rep.Phases {
		if len(pr.Static) != len(adaptiveCandidates()) {
			t.Fatalf("phase %s measured %d static candidates, want %d",
				pr.Phase, len(pr.Static), len(adaptiveCandidates()))
		}
		if pr.BestStatic == "" || pr.BestOpsPerSec <= 0 {
			t.Fatalf("phase %s has no oracle: %+v", pr.Phase, pr)
		}
		if pr.AdaptiveOpsPerSec <= 0 {
			t.Fatalf("phase %s adaptive run made no progress", pr.Phase)
		}
		if pr.Ratio <= 0 {
			t.Fatalf("phase %s ratio not computed: %+v", pr.Phase, pr)
		}
		if pr.FinalPolicy == "" {
			t.Fatalf("phase %s missing final policy", pr.Phase)
		}
	}
	if rep.Phases[0].Phase != "readmostly" || rep.Phases[1].Phase != "hotspot" {
		t.Fatalf("phase order: %s, %s", rep.Phases[0].Phase, rep.Phases[1].Phase)
	}
	// The decision log and swap counter must agree on whether the
	// controller acted.
	if (rep.Swaps == 0) != (len(rep.Decisions) == 0) {
		t.Fatalf("swaps=%d but %d decisions", rep.Swaps, len(rep.Decisions))
	}
	// The latency drill guarantees the p99 backoff rule fired on
	// every run, so its decision must be in the log.
	if !rep.P99RuleFired {
		t.Fatalf("p99 backoff rule never fired; decisions: %+v", rep.Decisions)
	}
	// Table rendering must not panic and must carry one row per phase.
	tab := rep.Table()
	if len(tab.Rows) != len(rep.Phases) {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), len(rep.Phases))
	}
}

// TestAdaptiveConvergenceUnknownPhase propagates registry errors.
func TestAdaptiveConvergenceUnknownPhase(t *testing.T) {
	_, err := AdaptiveConvergence(AdaptiveConfig{
		Phases:        []string{"no-such-scenario"},
		PhaseDuration: 10 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("unknown phase accepted")
	}
}
