package scenario

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

// STMRunner executes a scenario as real transactions on the
// internal/stm runtime: the same programs the HTM simulator replays
// become Atomic blocks over tx.Load/tx.Store, so both backends run
// identical access patterns and verify identical invariants.
type STMRunner struct {
	sc       *Scenario
	rt       *stm.Runtime
	annotate ProgramAnnotator
}

// ProgramAnnotator receives the scenario-level context of each
// transaction the runner executes — the half of a trace record the
// runtime cannot see (program op count, sampled compute length, think
// time). A tracer installed as stm.Config.Trace that also implements
// this interface (trace.Recorder does) is called right after the
// runtime delivers the block's TxTrace, on the same worker goroutine.
type ProgramAnnotator interface {
	AnnotateProgram(worker, ops int, compute, think float64)
}

// NewSTMRunner builds a runtime sized to the scenario's arena. The
// scenario's worker count is frozen from this point on: the arena
// cannot grow once words are allocated.
func NewSTMRunner(sc *Scenario, cfg stm.Config) *STMRunner {
	rn := &STMRunner{sc: sc, rt: stm.New(sc.Words(), cfg)}
	if a, ok := cfg.Trace.(ProgramAnnotator); ok {
		rn.annotate = a
	}
	return rn
}

// Runtime exposes the underlying STM runtime (stats, config).
func (rn *STMRunner) Runtime() *stm.Runtime { return rn.rt }

// RunOne generates and commits one transaction for the given worker,
// then burns the program's think time outside the transaction.
// Workers must each run on their own goroutine with their own stream.
// Each block is a one-shot AtomicWorker, not a block of a long-lived
// stm.Worker handle: a handle chains a block's start to the previous
// block's end, which would count the think time as transaction time.
func (rn *STMRunner) RunOne(worker int, r *rng.Rand) {
	p := rn.sc.Next(worker, r)
	_ = rn.rt.AtomicWorker(worker, r, func(tx *stm.Tx) error {
		execProgram(tx, p.Ops)
		return nil
	})
	if rn.annotate != nil {
		var compute float64
		for _, op := range p.Ops {
			if op.Kind == OpCompute {
				compute += op.Cycles
			}
		}
		rn.annotate.AnnotateProgram(worker, len(p.Ops), compute, p.Think)
	}
	busyWork(int(p.Think))
}

// execProgram interprets a scenario program against a transaction.
// The register file is re-zeroed per attempt (the closure re-runs on
// abort), mirroring the HTM core's fresh registers after restart.
func execProgram(tx *stm.Tx, ops []Op) {
	var regs [8]uint64
	for _, op := range ops {
		switch op.Kind {
		case OpCompute:
			busyWork(int(op.Cycles))
		case OpRead:
			regs[op.Dst&7] = tx.Load(op.WordIndex(&regs))
		case OpWrite:
			tx.Store(op.WordIndex(&regs), op.Value(&regs))
		case OpAdd:
			tx.Add(op.WordIndex(&regs), op.Imm)
		}
	}
}

// DriveResult summarizes one timed multi-worker run.
type DriveResult struct {
	// PerWorker counts completed transactions per worker.
	PerWorker []uint64
	// ElapsedSec is the measured wall-clock duration.
	ElapsedSec float64
}

// Ops returns the total completed transactions.
func (dr DriveResult) Ops() uint64 {
	var total uint64
	for _, c := range dr.PerWorker {
		total += c
	}
	return total
}

// OpsPerSec returns the completed-transaction throughput.
func (dr DriveResult) OpsPerSec() float64 {
	if dr.ElapsedSec <= 0 {
		return 0
	}
	return float64(dr.Ops()) / dr.ElapsedSec
}

// Drive hammers the scenario with the given number of worker
// goroutines for roughly d. It panics when workers exceeds the
// scenario's configured worker count (per-worker state cannot grow
// mid-run).
func (rn *STMRunner) Drive(workers int, d time.Duration, seed uint64) DriveResult {
	if workers <= 0 || workers > rn.sc.Workers() {
		panic(fmt.Sprintf("scenario %s: Drive with %d workers, instance sized for %d",
			rn.sc.Name(), workers, rn.sc.Workers()))
	}
	root := rng.New(seed)
	counts := make([]uint64, workers)
	stop := make(chan struct{})
	// Profiler labels carry the experiment context into pprof output:
	// CPU and block profiles split by scenario and commit mode, so a
	// mixed run (a sweep over scenarios or modes) stays attributable.
	mode := "eager"
	if rn.rt.Config().Lazy {
		mode = "lazy"
		if rn.rt.Policy().CommitBatch > 0 {
			mode = "lazy-batched"
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		r := root.Split()
		wg.Add(1)
		labels := pprof.Labels("scenario", rn.sc.Name(),
			"stm_mode", mode, "stm_worker", strconv.Itoa(w))
		go pprof.Do(context.Background(), labels, func(context.Context) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rn.RunOne(w, r)
				counts[w]++
			}
		})
	}
	start := time.Now()
	time.Sleep(d)
	close(stop)
	wg.Wait()
	return DriveResult{PerWorker: counts, ElapsedSec: time.Since(start).Seconds()}
}

// Check verifies the scenario invariant against the runtime's
// committed state and the given per-worker completed-transaction
// counts (as returned in DriveResult.PerWorker).
func (rn *STMRunner) Check(perWorker []uint64) error {
	st := &State{
		Read:             func(word int) uint64 { return rn.rt.ReadCommitted(word) },
		PerWorkerCommits: perWorker,
	}
	return rn.sc.Check(st)
}

// CalibrateUnitNs measures this machine's wall-clock nanoseconds per
// compute unit (one busyWork iteration) — the conversion a trace
// recorder stamps into its header so recorded compute lengths replay
// as faithful simulated-cycle counts on another box (at the
// simulator's 1 GHz convention, units × UnitNs = cycles). Best of
// three trials over 2²⁰ iterations (~1-4 ms total); the minimum
// rejects scheduler preemption, which only ever inflates the
// measurement.
func CalibrateUnitNs() float64 {
	const n = 1 << 20
	best := math.MaxFloat64
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		busyWork(n)
		if d := float64(time.Since(start).Nanoseconds()) / n; d < best && d > 0 {
			best = d
		}
	}
	if best == math.MaxFloat64 {
		return 0
	}
	return best
}

// busyWork spins for n iterations of dependent integer work, keeping
// the goroutine on-CPU like real computation (no sleeping).
func busyWork(n int) {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 42 {
		panic("unreachable")
	}
}
