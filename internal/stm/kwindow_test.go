package stm

import (
	"strings"
	"sync"
	"testing"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/rng"
	"txconflict/internal/strategy"
)

func TestKEstimatorWindow(t *testing.T) {
	e := newKEstimator(4)
	if e.estimate() != 0 {
		t.Fatal("empty estimator must report 0")
	}
	e.observe(2)
	e.observe(2)
	if got := e.estimate(); got != 2 {
		t.Fatalf("estimate = %v, want 2", got)
	}
	// Fill the window with 6s: the early 2s must age out.
	for i := 0; i < 4; i++ {
		e.observe(6)
	}
	if got := e.estimate(); got != 6 {
		t.Fatalf("estimate = %v, want 6 after window rollover", got)
	}
}

func TestKEstimateDisabledByDefault(t *testing.T) {
	rt := New(8, DefaultConfig())
	if rt.KEstimate() != 0 {
		t.Fatal("KEstimate must be 0 with KWindow = 0")
	}
	if strings.Contains(rt.Config().String(), "kw") {
		t.Fatalf("config string %q must not mention kw", rt.Config().String())
	}
}

func TestKWindowConfigString(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KWindow = 64
	if got := cfg.String(); !strings.Contains(got, "kw64") {
		t.Fatalf("config string %q missing kw64", got)
	}
}

// TestKWindowObservesConflicts drives a contended counter with the
// windowed estimator enabled: the invariant must hold and, once
// grace waits occurred, the estimate must be a plausible chain
// length (>= 2).
func TestKWindowObservesConflicts(t *testing.T) {
	cfg := Config{
		Policy:      core.RequestorWins,
		Strategy:    strategy.UniformRW{},
		KWindow:     16,
		CleanupCost: time.Microsecond,
		MaxRetries:  256,
	}
	rt := New(1, cfg)
	const workers = 4
	const opsPer = 300
	var wg sync.WaitGroup
	root := rng.New(3)
	for w := 0; w < workers; w++ {
		r := root.Split()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				_ = rt.Atomic(r, func(tx *Tx) error {
					tx.Store(0, tx.Load(0)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := rt.ReadCommitted(0); got != workers*opsPer {
		t.Fatalf("counter = %d, want %d", got, workers*opsPer)
	}
	if rt.Stats.Snapshot()["graceWaits"] > 0 {
		if est := rt.KEstimate(); est < 2 {
			t.Fatalf("KEstimate = %v after conflicts, want >= 2", est)
		}
	}
}
