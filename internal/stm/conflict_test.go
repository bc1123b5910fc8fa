package stm

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/metrics"
	"txconflict/internal/rng"
)

// unclampedGrace is a test strategy returning a fixed grace period
// verbatim. The production strategies (e.g. strategy.Fixed) clamp to
// core.MaxUsefulDelay = B, which for a just-started receiver is
// microseconds — far too short to stage an ordered conflict around.
type unclampedGrace float64

func (g unclampedGrace) Name() string                               { return "unclampedGrace" }
func (g unclampedGrace) Delay(_ core.Conflict, _ *rng.Rand) float64 { return float64(g) }

// TestEpochKillSkipsLaterAttempt stages the descriptor-reuse ABA:
// a requestor parks in onLocked against attempt 1 of a receiver; the
// receiver then aborts and attempt 2 of the *same descriptor*
// re-acquires the same word. The requestor's captured epoch must make
// it treat the lock as "moved on" — never carrying its stale deadline
// over to attempt 2, and never killing it (the old pointer-identity
// protocol did both).
func TestEpochKillSkipsLaterAttempt(t *testing.T) {
	cfg := DefaultConfig()
	// A genuinely long grace so no deadline can legitimately expire
	// during the staging windows (the orchestration below is
	// event-driven, so the test never actually waits this long).
	cfg.Strategy = unclampedGrace(10 * time.Second / time.Nanosecond)
	cfg.MaxRetries = 0
	rt := New(2, cfg)
	root := rng.New(11)
	recvR, reqR := root.Split(), root.Split()

	held1 := make(chan struct{})
	abort1 := make(chan struct{})
	held2 := make(chan struct{}, 4)
	done2 := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // receiver
		defer wg.Done()
		_ = rt.Atomic(recvR, func(tx *Tx) error {
			tx.Store(0, 7)
			if tx.Attempts() == 0 {
				close(held1)
				<-abort1
				panic(txAbort{reason: metrics.AbortValidation})
			}
			select {
			case held2 <- struct{}{}:
			default:
			}
			<-done2
			return nil
		})
	}()
	<-held1

	wg.Add(1)
	go func() { // requestor
		defer wg.Done()
		_ = rt.Atomic(reqR, func(tx *Tx) error {
			tx.Store(0, tx.Load(0)+100)
			return nil
		})
	}()

	waitFor := func(cond func() bool, what string) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened (stats %v)", what, rt.Stats.Snapshot())
			}
			runtime.Gosched()
		}
	}
	// parked reports a requestor inside a grace wait on word 0's owner
	// (graceWaits only counts a wait once it has ended).
	parked := func() bool {
		l := rt.meta[0].lock.Load()
		return isLocked(l) && (*rt.descs.Load())[lockOwner(l)].waiters.Load() >= 1
	}
	// Park the requestor against attempt 1, then retire attempt 1.
	waitFor(parked, "requestor grace wait")
	close(abort1)
	<-held2
	// The fixed protocol ends the wait on attempt 1 and starts a
	// *fresh* one against attempt 2 (or the requestor slipped in and
	// committed during the inter-attempt window); the broken one stays
	// in the first wait, fires the stale deadline and kills attempt 2.
	waitFor(func() bool {
		s := rt.Stats.Snapshot()
		return s["graceWaits"] >= 1 && parked() ||
			s["commits"] >= 1 || // requestor won the window
			s["kills"] >= 1
	}, "requestor re-resolution")
	close(done2)
	wg.Wait()

	if kills := rt.Stats.Snapshot()["kills"]; kills != 0 {
		t.Fatalf("stale requestor killed a later attempt (%d kills, stats %v)", kills, rt.Stats.Snapshot())
	}
	if commits := rt.Stats.Snapshot()["commits"]; commits != 2 {
		t.Fatalf("commits = %d, want 2 (stats %v)", commits, rt.Stats.Snapshot())
	}
}

type block = func(tx *Tx) error

// panicEntries are the two ways a block can be entered when user code
// panics out of it: the one-shot Atomic, and a later block of a Worker
// handle that has already committed one (so a chained stamp is live).
// Each runs body, checks that the panic reached the caller, and
// returns the way to run one more block through the same entry.
var panicEntries = []struct {
	name string
	run  func(t *testing.T, rt *Runtime, r *rng.Rand, body block) (again func(block) error)
}{
	{"oneshot", func(t *testing.T, rt *Runtime, r *rng.Rand, body block) func(block) error {
		again := func(fn block) error { return rt.Atomic(r, fn) }
		expectPanic(t, func() { _ = again(body) })
		return again
	}},
	{"handle", func(t *testing.T, rt *Runtime, r *rng.Rand, body block) func(block) error {
		w := rt.Worker(0, r)
		t.Cleanup(w.Release)
		if err := w.Atomic(func(tx *Tx) error { return nil }); err != nil {
			t.Fatal(err)
		}
		expectPanic(t, func() { _ = w.Atomic(body) })
		if w.chained {
			t.Fatal("a panicked block left its handle chained")
		}
		return w.Atomic
	}},
}

func expectPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("user panic was swallowed")
		}
	}()
	f()
}

// TestForeignPanicReleasesEncounterLocks: a panic out of user code
// (not the internal txAbort) must roll back in-place writes and drop
// encounter locks before unwinding — otherwise the word stays locked
// forever and every later transaction wedges on it.
func TestForeignPanicReleasesEncounterLocks(t *testing.T) {
	for _, e := range panicEntries {
		t.Run(e.name, func(t *testing.T) {
			rt := New(4, DefaultConfig())
			again := e.run(t, rt, rng.New(1), func(tx *Tx) error {
				tx.Store(0, 9)
				panic("user bug")
			})
			if isLocked(rt.meta[0].lock.Load()) {
				t.Fatal("panic leaked the encounter lock")
			}
			if got := rt.ReadCommitted(0); got != 0 {
				t.Fatalf("panic leaked a dirty write: %d", got)
			}
			if err := again(func(tx *Tx) error { tx.Store(0, 1); return nil }); err != nil {
				t.Fatalf("runtime unusable after panic: %v", err)
			}
			if got := rt.ReadCommitted(0); got != 1 {
				t.Fatalf("post-panic commit lost: %d", got)
			}
		})
	}
}

// TestForeignPanicReleasesIrrevocableToken: the same unwind from an
// irrevocable transaction must release the fallback token, or every
// future slow-path transaction deadlocks.
func TestForeignPanicReleasesIrrevocableToken(t *testing.T) {
	for _, e := range panicEntries {
		t.Run(e.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxRetries = 1 // first abort escalates to the slow path
			rt := New(2, cfg)
			e.run(t, rt, rng.New(1), func(tx *Tx) error {
				if tx.Attempts() == 0 {
					panic(txAbort{reason: metrics.AbortValidation}) // force escalation
				}
				panic("user bug on the irrevocable path")
			})
			if rt.Stats.Snapshot()["irrevocable"] == 0 {
				t.Fatal("staging failed: transaction never went irrevocable")
			}
			if !rt.fallback.TryLock() {
				t.Fatal("panic leaked the irrevocable fallback token")
			}
			rt.fallback.Unlock()
		})
	}
}

// TestChainEstimateDistinct: concurrent requestors registering on the
// same receiver must observe distinct chain lengths 2, 3, ..., n+1.
// The old pre-Add read let simultaneous arrivals all compute k=2,
// hiding long chains from the Section 9 hybrid switch.
func TestChainEstimateDistinct(t *testing.T) {
	const n = 8
	for round := 0; round < 50; round++ {
		owner := &Tx{}
		ks := make([]int, n)
		var start, wg sync.WaitGroup
		start.Add(1)
		wg.Add(n)
		for i := 0; i < n; i++ {
			i := i
			go func() {
				defer wg.Done()
				start.Wait()
				ks[i] = owner.chainK()
			}()
		}
		start.Done()
		wg.Wait()
		sort.Ints(ks)
		for i, k := range ks {
			if k != i+2 {
				t.Fatalf("round %d: chain estimates %v, want a permutation of 2..%d", round, ks, n+1)
			}
		}
		if owner.waiters.Load() != n {
			t.Fatalf("waiter count = %d, want %d", owner.waiters.Load(), n)
		}
	}
}

// TestGraceForClampsOverflow is the regression test for the
// float64→time.Duration overflow on the grace path: a strategy
// returning +Inf (or any nanosecond value above MaxInt64) once
// converted to an implementation-defined — on amd64, negative —
// duration, silently collapsing the configured grace period to zero.
// The rule's clamp (core.TestRule holds its rows) caps the grace at
// core.MaxGrace, one minute in the STM's nanoseconds; this is the
// backend check that the deadline onLocked builds from the decision is
// that clamped value, for either doomed side.
func TestGraceForClampsOverflow(t *testing.T) {
	if time.Duration(core.MaxGrace) != time.Minute {
		t.Fatalf("core.MaxGrace = %v ns, want one minute", core.MaxGrace)
	}
	cases := []struct {
		name  string
		delay float64
		want  time.Duration
	}{
		{"+Inf", math.Inf(1), time.Minute},
		{"above MaxInt64 ns", 2 * float64(math.MaxInt64), time.Minute},
		{"just above cap", float64(time.Minute) * 1.5, time.Minute},
		{"NaN", math.NaN(), 0},
		{"negative", -5, 0},
		{"-Inf", math.Inf(-1), 0},
		{"sane", 1500, 1500 * time.Nanosecond},
		{"at cap", float64(time.Minute), time.Minute},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Strategy = unclampedGrace(c.delay)
			for _, pol := range []core.Policy{core.RequestorWins, core.RequestorAborts} {
				cfg.Rule.Policy = pol
				rt := New(1, cfg)
				now := nanos()
				owner := &Tx{rt: rt}
				owner.startNanos.Store(now)
				tx := &Tx{rt: rt, pol: rt.pol.Load()}
				tx.start = now
				got := time.Duration(tx.decide(owner, 2, now).Grace)
				if got < 0 {
					t.Fatalf("policy %v: grace %v is negative (overflow leaked through)", pol, got)
				}
				if got != c.want {
					t.Fatalf("policy %v: grace = %v, want %v", pol, got, c.want)
				}
			}
		})
	}
}
