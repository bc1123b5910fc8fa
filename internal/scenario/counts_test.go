package scenario_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
	"txconflict/internal/scenario"
)

// updateCounts regenerates testdata/mode_counts.txt from the tree under
// test. The checked-in file was generated before the commit paths were
// merged into one pipeline; a refactor of the commit path must leave
// every line of it unchanged.
var updateCounts = flag.Bool("update", false, "rewrite testdata/mode_counts.txt")

const countsFile = "testdata/mode_counts.txt"

// TestCrossModeCounts pins, per scenario and commit mode, what
// TestCrossModeEquivalence's seeded single-worker schedule leaves
// behind: a fingerprint of the committed arena and the runtime's event
// counts. The equivalence suite compares modes with each other; this
// compares each mode with itself across changes, so a refactor that
// commits the same words but counts a different batch, fold, extension
// or abort reason fails here. Cells a CI matrix drops from stmModes
// (STM_COMMIT_BATCH=0, STM_FOLD=0) are skipped, not failed.
func TestCrossModeCounts(t *testing.T) {
	const txs = 300
	var got []string
	for _, name := range scenario.Names() {
		for _, mode := range stmModes() {
			sc, err := scenario.ByName(name, scenario.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			rn := scenario.NewSTMRunner(sc, mode.cfg)
			r := rng.New(12345)
			for i := 0; i < txs; i++ {
				rn.RunOne(0, r)
			}
			h := fnv.New64a()
			var b [8]byte
			for i := 0; i < sc.Words(); i++ {
				v := rn.Runtime().ReadCommitted(i)
				for j := range b {
					b[j] = byte(v >> (8 * j))
				}
				h.Write(b[:])
			}
			got = append(got, countsLine(name, mode.name, h.Sum64(), rn.Runtime().Metrics().Snapshot()))
		}
	}
	if *updateCounts {
		if len(stmModes()) != 4 {
			t.Fatal("-update needs every mode: unset STM_COMMIT_BATCH and STM_FOLD")
		}
		if err := os.WriteFile(countsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(countsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want[cellKey(line)] = line
	}
	for _, line := range got {
		w, ok := want[cellKey(line)]
		if !ok {
			t.Errorf("no pinned cell for %q", cellKey(line))
			continue
		}
		if line != w {
			t.Errorf("cell %q:\n got %s\nwant %s", cellKey(line), line, w)
		}
	}
}

// countsLine renders one cell: scenario, mode, arena fingerprint, the
// commit count, the abort taxonomy and the event counters.
func countsLine(name, mode string, arena uint64, s metrics.PlaneSnapshot) string {
	var b strings.Builder
	c := s.Counts()
	fmt.Fprintf(&b, "%s %s arena=%016x commits=%d", name, mode, arena, c["commits"])
	for r := 0; r < metrics.NumAbortReasons; r++ {
		fmt.Fprintf(&b, " abort.%s=%d", metrics.AbortReason(r), s.Aborts[r])
	}
	for _, k := range []string{"selfAborts", "extensions", "batches", "batchCommits", "batchFails", "foldedCommits", "foldedWords"} {
		fmt.Fprintf(&b, " %s=%d", k, c[k])
	}
	return b.String()
}

// cellKey is a line's "scenario mode" prefix.
func cellKey(line string) string {
	f := strings.Fields(line)
	return f[0] + " " + f[1]
}
