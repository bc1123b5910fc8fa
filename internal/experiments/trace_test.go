package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestTraceFidelity exercises the full measure-model-validate loop on
// a small in-memory trace: record a contended hotspot run on the STM,
// replay the identical footprints on the HTM simulator and the STM
// runtime, and check the three-row comparison table. CI runs this
// under the race detector (make race-short).
func TestTraceFidelity(t *testing.T) {
	cfg := DefaultSTMConfig()
	cfg.Seed = 5
	cfg.Duration = 40 * time.Millisecond
	if testing.Short() {
		cfg.Duration = 20 * time.Millisecond
	}
	tr, err := RecordTrace("hotspot", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Commits() == 0 || tr.Scenario != "hotspot" {
		t.Fatalf("recorded trace: %d records, %d commits, scenario %q",
			len(tr.Records), tr.Commits(), tr.Scenario)
	}
	tab, err := TraceFidelity(tr, FidelityConfig{
		Workers: 2,
		Cycles:  150_000,
		STM:     cfg, // replay under the recorded run's config and seed
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("fidelity table has %d rows, want 3 (recorded/simulator/measured)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] == "0" {
			t.Fatalf("fidelity row %q committed nothing: %v", row[0], row)
		}
	}
	if !strings.Contains(tab.Title, "hotspot") {
		t.Fatalf("title = %q", tab.Title)
	}
}

// TestRecordTraceUnknownScenario pins the error contract: recording a
// scenario that is not registered surfaces the registry's sorted name
// list instead of a bare failure.
func TestRecordTraceUnknownScenario(t *testing.T) {
	_, err := RecordTrace("no-such-scenario", STMConfig{Duration: 10 * time.Millisecond}, 1)
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") ||
		!strings.Contains(err.Error(), "hotspot") {
		t.Fatalf("err = %v, want unknown-scenario with registered names", err)
	}
}
