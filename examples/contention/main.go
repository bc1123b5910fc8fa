// Contention study on the real-goroutine STM runtime: the paper's
// transactional application (jointly acquire and modify 2 of 64
// objects) under requestor-wins vs requestor-aborts, with and without
// grace periods, plus the bimodal variant where hand-tuning fails.
//
// Run with: go run ./examples/contention
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/report"
	"txconflict/internal/scenario"
	"txconflict/internal/stm"
	"txconflict/internal/strategy"
)

func main() {
	goroutines := runtime.GOMAXPROCS(0)
	const dur = 250 * time.Millisecond

	type variant struct {
		name string
		cfg  stm.Config
	}
	mk := func(pol core.Policy, s core.Strategy) stm.Config {
		return stm.Config{Policy: stm.Policy{Resolution: pol, Strategy: s, CleanupCost: 2 * time.Microsecond, MaxRetries: 256}}
	}
	variants := []variant{
		{"RW / NO_DELAY", mk(core.RequestorWins, nil)},
		{"RW / DELAY_RAND", mk(core.RequestorWins, strategy.UniformRW{})},
		{"RW / DELAY_RAND(mu)", func() stm.Config {
			c := mk(core.RequestorWins, strategy.MeanRW{})
			c.UseMeanProfile = true
			return c
		}()},
		{"RA / NO_DELAY", mk(core.RequestorAborts, nil)},
		{"RA / DELAY_RAND", mk(core.RequestorAborts, strategy.ExpRA{})},
	}

	apps := []struct {
		scenario, title string
		length          dist.Sampler
	}{
		{"txapp", "uniform transactional application (2 of 64 objects)", dist.Constant{V: 400}},
		{"bimodal", "bimodal transactional application (short/very long mix)", dist.Bimodal{Short: 100, Long: 30000, PShort: 0.5}},
	}
	for _, app := range apps {
		t := &report.Table{
			Title:   fmt.Sprintf("%s, %d goroutines", app.title, goroutines),
			Columns: []string{"variant", "ops/s", "commits", "aborts", "kills", "graceWaits"},
		}
		for _, v := range variants {
			sc, err := scenario.ByName(app.scenario, scenario.Options{Workers: goroutines, Length: app.length})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			rn := scenario.NewSTMRunner(sc, v.cfg)
			res := rn.Drive(goroutines, dur, 11)
			st := rn.Runtime().Stats.Snapshot()
			t.AddRow(v.name, res.OpsPerSec(), st["commits"], st["aborts"], st["kills"], st["graceWaits"])
			// Serializability check: every commit bumped two objects,
			// so the committed object sum is twice the commit count.
			if err := rn.Check(res.PerWorker); err != nil {
				fmt.Fprintln(os.Stderr, "INVARIANT VIOLATION:", err)
				os.Exit(1)
			}
		}
		if err := t.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
