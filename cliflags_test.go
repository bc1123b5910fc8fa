package txconflict_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestCmdFlagValidation pins the shared front-end convention
// (internal/cliutil) across every command with registry-backed
// selector flags: an unknown -scenario / -workload / -dist value must
// exit with status 2 and print the sorted registered names, so a typo
// is a one-round-trip fix instead of a silent fallback.
func TestCmdFlagValidation(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	bindir := t.TempDir()
	bins := map[string]string{}
	for _, cmd := range []string{"stmbench", "txkvd"} {
		bin := filepath.Join(bindir, cmd)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
		bins[cmd] = bin
	}

	type flagCase struct {
		name string
		cmd  string
		args []string
		want string // substring of stderr
		list string // when set, the suggestion list after this prefix must be sorted
	}
	cases := []flagCase{
		{"stmbench scenario", "stmbench", []string{"-scenario", "nope"},
			`stmbench: unknown scenario "nope"`, "registered scenarios: "},
		{"txkvd workload", "txkvd", []string{"-workload", "nope"},
			`txkvd: unknown workload "nope"; registered workloads: document, hotspot-counter, readmostly`, ""},
		{"txkvd mode", "txkvd", []string{"-mode", "weird"},
			`txkvd: unknown mode "weird"`, ""},
		{"stmbench dist", "stmbench", []string{"-scenario", "hotspot", "-dist", "nope"},
			"nope", ""},
		// txkvd only serves: its load-shaping flags are retired (the
		// loop below has the rest of them).
		{"txkvd dist", "txkvd", []string{"-dist", "nope"},
			"flag provided but not defined: -dist", ""},
		// Integer knobs: zero/negative values that would wedge or
		// silently misconfigure a run are rejected up front with the
		// flag named in the message.
		{"stmbench negative batch", "stmbench", []string{"-scenario", "hotspot", "-batch", "-1"},
			"stmbench: -batch must be >= 0 (got -1)", ""},
		{"txkvd zero workers", "txkvd", []string{"-workers", "0"},
			"txkvd: -workers must be > 0 (got 0)", ""},
		{"txkvd negative workers", "txkvd", []string{"-workers", "-2"},
			"txkvd: -workers must be > 0 (got -2)", ""},
		// Retired with txkvd's load modes.
		{"txkvd zero users", "txkvd", []string{"-users", "0"},
			"flag provided but not defined: -users", ""},
		{"txkvd zero batchsize", "txkvd", []string{"-batchsize", "0"},
			"flag provided but not defined: -batchsize", ""},
		{"txkvd negative batch", "txkvd", []string{"-batch", "-1"},
			"txkvd: -batch must be >= 0 (got -1)", ""},
		{"txkvd negative capacity", "txkvd", []string{"-capacity", "-1"},
			"txkvd: -capacity must be >= 0 (got -1)", ""},
		// Dependent flags: -fold only means anything inside the
		// group-commit combiner, so it must name its prerequisite.
		{"stmbench fold without batch", "stmbench", []string{"-scenario", "hotspot", "-fold"},
			"stmbench: -fold requires -batch > 0", ""},
		{"txkvd fold without batch", "txkvd", []string{"-fold"},
			"txkvd: -fold requires -batch > 0", ""},
		{"stmbench zero delta", "stmbench", []string{"-scenario", "hotspot", "-delta", "0"},
			"stmbench: -delta must be > 0 (got 0)", ""},
		// Observability knob: the phase-timer sampling interval must be
		// positive.
		{"txkvd zero metrics-sample", "txkvd", []string{"-metrics-sample", "0"},
			"txkvd: -metrics-sample must be > 0 (got 0)", ""},
		{"stmbench zero metrics-sample", "stmbench", []string{"-scenario", "hotspot", "-metrics-sample", "0"},
			"stmbench: -metrics-sample must be > 0 (got 0)", ""},
		// Resolution names go through core.ParsePolicy: anything but rw
		// or ra (or their long forms) is an error, not requestor-wins.
		{"stmbench policy", "stmbench", []string{"-scenario", "hotspot", "-policy", "nope"},
			`stmbench: -policy: unknown resolution "nope" (want rw, ra, requestorwins or requestoraborts)`, ""},
	}
	// Retired flags — the pre-ledger perf snapshots, the fleet sweep,
	// the self-tuning control loop, the windowed k estimator, the
	// clock-stripe count, and txkvd's closed-loop load modes (it only
	// serves; bench/ drives the served store; -dist, -users and
	// -batchsize are pinned above) — are rejected by the flag package,
	// never silently ignored.
	for _, r := range []struct{ cmd, flag string }{
		{"stmbench", "perf"}, {"stmbench", "fleet"}, {"txkvd", "perf"},
		{"stmbench", "adaptive"}, {"txkvd", "adaptive"}, {"stmbench", "kwindow"},
		{"stmbench", "shards"}, {"txkvd", "shards"},
		{"txkvd", "bench"}, {"txkvd", "load"}, {"txkvd", "duration"},
		{"txkvd", "record"}, {"txkvd", "mu"},
	} {
		cases = append(cases, flagCase{r.cmd + " " + r.flag + " removed", r.cmd,
			[]string{"-" + r.flag}, "flag provided but not defined: -" + r.flag, ""})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bins[c.cmd], c.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("%s %v: err = %v, want exit error (stderr %q)", c.cmd, c.args, err, stderr.String())
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("%s %v: exit %d, want 2 (stderr %q)", c.cmd, c.args, code, stderr.String())
			}
			msg := stderr.String()
			if !strings.Contains(msg, c.want) {
				t.Fatalf("%s %v: stderr %q lacks %q", c.cmd, c.args, msg, c.want)
			}
			if c.list != "" {
				i := strings.Index(msg, c.list)
				if i < 0 {
					t.Fatalf("%s %v: stderr %q lacks %q", c.cmd, c.args, msg, c.list)
				}
				names := strings.Split(strings.TrimSpace(msg[i+len(c.list):]), ", ")
				if !sort.StringsAreSorted(names) {
					t.Fatalf("%s %v: suggestions not sorted: %v", c.cmd, c.args, names)
				}
			}
		})
	}
}
