// Command tracereplay walks the Section 1 profile-to-simulation loop
// in one file: record a real STM run of the contended hotspot
// scenario, profile it into empirical distributions, persist and
// reload the trace, then replay the identical footprints on both
// execution backends and print the fidelity comparison.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"txconflict/internal/dist"
	"txconflict/internal/experiments"
	"txconflict/internal/trace"
)

func main() {
	// 1. Record: drive hotspot on the real-goroutine STM runtime with
	// a trace.Recorder installed (experiments.RecordTrace wires
	// stm.Config.Trace and verifies the scenario invariant).
	cfg := experiments.DefaultSTMConfig()
	tr, err := experiments.RecordTrace("hotspot", cfg, 2, 100*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d transactions (%d committed) from a %s run\n",
		len(tr.Records), tr.Commits(), tr.Scenario)

	// 2. Profile: lengths and think times become dist.Empirical
	// samplers, registered in the catalog as trace:<key>.
	prof := trace.NewProfile(tr)
	lname, _, err := prof.RegisterSamplers("example")
	if err != nil {
		log.Fatal(err)
	}
	smp, err := dist.ByName(lname, 0) // mu <= 0 replays the raw trace
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled length distribution %q: mean %.1f units, %.2f aborts/commit\n",
		lname, smp.Mean(), prof.AbortsPerCommit)

	// 3. Persist: the versioned binary container round-trips the trace.
	path := filepath.Join(os.TempDir(), "tracereplay-example"+trace.BinaryExt)
	if err := trace.Save(path, tr); err != nil {
		log.Fatal(err)
	}
	loaded, err := trace.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	fmt.Printf("saved and reloaded %s (%d records)\n", path, loaded.Count)

	// 4. Replay and compare: the same footprints on the HTM simulator
	// and a fresh STM arena, next to the recorded originals.
	tab, err := experiments.TraceFidelity(loaded, experiments.FidelityConfig{
		Cycles:   300_000,
		Duration: 100 * time.Millisecond,
		Seed:     1,
		STM:      cfg, // same runtime as the recorded run
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := tab.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
