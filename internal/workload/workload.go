// Package workload adapts the unified scenario engine
// (internal/scenario) to the HTM simulator: a scenario's
// register-machine programs over word indices are compiled, one
// transaction at a time, into htm.Tx op sequences with every scenario
// word on its own cache line — so pointer contention, not false
// sharing, dominates, as in the paper's lock-free designs.
//
// The same scenarios run unchanged as real transactions on the STM
// runtime via scenario.STMRunner; this package is only the simulator
// half of that pairing.
package workload

import (
	"fmt"

	"txconflict/internal/htm"
	"txconflict/internal/rng"
	"txconflict/internal/scenario"
	"txconflict/internal/sim"
)

// wordBytes maps a scenario word index to its byte address: each word
// occupies its own 64-byte cache line.
const wordBytes = 64

// wordShift is log2(wordBytes), the scale for register-indirect
// addressing (registers hold word indices).
const wordShift = 6

// HTM compiles a scenario into an htm.Workload. Per-worker scenario
// state is sized to the machine's actual core count via the
// EnsureWorkers hook (htm.NewMachine calls it), and overflowing the
// configured worker range panics with a descriptive message instead
// of silently wrapping.
type HTM struct {
	sc  *scenario.Scenario
	ops [][]htm.Op // per core: the backing array of its last Tx
}

// FromScenario wraps a scenario instance for the simulator.
func FromScenario(sc *scenario.Scenario) *HTM { return &HTM{sc: sc} }

// ByName instantiates a registry scenario for the simulator.
func ByName(name string, opt scenario.Options) (*HTM, error) {
	sc, err := scenario.ByName(name, opt)
	if err != nil {
		return nil, err
	}
	return FromScenario(sc), nil
}

// Name implements htm.Workload.
func (w *HTM) Name() string { return w.sc.Name() }

// EnsureWorkers sizes per-core scenario state; htm.NewMachine calls
// it with the actual core count.
func (w *HTM) EnsureWorkers(n int) { w.sc.EnsureWorkers(n) }

// NextTx implements htm.Workload: one scenario program compiled to
// simulator ops, in the core's own buffer — like the program, the ops
// are valid until the same core's next NextTx.
func (w *HTM) NextTx(coreID int, r *rng.Rand) htm.Tx {
	p := w.sc.Next(coreID, r) // panics on a core the scenario is not sized for
	if coreID >= len(w.ops) {
		w.ops = append(w.ops, make([][]htm.Op, w.sc.Workers()-len(w.ops))...)
	}
	ops := w.ops[coreID][:0]
	for _, op := range p.Ops {
		ops = compileOp(ops, op)
	}
	w.ops[coreID] = ops
	return htm.Tx{Ops: ops, ThinkTime: sim.Time(p.Think)}
}

// Check verifies the scenario invariant against the directory's
// committed memory image (read is typically m.Dir.ReadWord) and the
// per-core commit counts from the drained metrics.
func (w *HTM) Check(read func(byteAddr uint64) uint64, perCoreCommits []uint64) error {
	st := &scenario.State{
		Read:             func(word int) uint64 { return read(uint64(word) * wordBytes) },
		PerWorkerCommits: perCoreCommits,
	}
	return w.sc.Check(st)
}

// compileOp lowers one scenario op onto the simulator op sequence:
// static word indices become line addresses, and register-indirect
// indices are scaled by the word size (registers hold word indices on
// both backends). Mask and shift are harmlessly carried on static ops
// too — EffectiveAddr ignores them when AddrReg < 0. A commutative
// OpAdd expands to the read-modify-write a hardware TM executes
// anyway — read the word into the scratch register Dst, store back
// Dst + Imm — since the simulator has no combiner to fold deltas
// into; the STM side is where the tag pays off.
func compileOp(ops []htm.Op, op scenario.Op) []htm.Op {
	switch op.Kind {
	case scenario.OpCompute:
		return append(ops, htm.Compute(sim.Time(op.Cycles)))
	case scenario.OpRead:
		return append(ops, htm.Op{
			Kind:      htm.OpRead,
			Addr:      uint64(op.Word) * wordBytes,
			AddrReg:   op.Reg,
			AddrMask:  op.Mask,
			AddrShift: wordShift,
			Dst:       op.Dst,
		})
	case scenario.OpWrite:
		return append(ops, htm.Op{
			Kind:      htm.OpWrite,
			Addr:      uint64(op.Word) * wordBytes,
			AddrReg:   op.Reg,
			AddrMask:  op.Mask,
			AddrShift: wordShift,
			SrcReg:    op.Src,
			Imm:       op.Imm,
		})
	case scenario.OpAdd:
		addr := uint64(op.Word) * wordBytes
		return append(ops,
			htm.Op{
				Kind:      htm.OpRead,
				Addr:      addr,
				AddrReg:   op.Reg,
				AddrMask:  op.Mask,
				AddrShift: wordShift,
				Dst:       op.Dst,
			},
			htm.Op{
				Kind:      htm.OpWrite,
				Addr:      addr,
				AddrReg:   op.Reg,
				AddrMask:  op.Mask,
				AddrShift: wordShift,
				SrcReg:    op.Dst,
				Imm:       op.Imm,
			})
	default:
		panic(fmt.Sprintf("workload: unknown scenario op kind %d", op.Kind))
	}
}

// TunedDelay estimates the hand-tuned grace period for a workload:
// the average isolated fast-path length (memory ops at L1 hit latency
// plus in-transaction compute plus commit), as a tuner with knowledge
// of the dataset and implementation would set it (Section 8.2).
func TunedDelay(w htm.Workload, p htm.Params, samples int) float64 {
	if samples <= 0 {
		samples = 256
	}
	r := rng.New(0xC0FFEE)
	var total sim.Time
	for i := 0; i < samples; i++ {
		tx := w.NextTx(i%64, r)
		total += tx.Len(p.L1Latency) + p.CommitLatency
	}
	return float64(total) / float64(samples)
}
