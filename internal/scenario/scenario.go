// Package scenario is the unified workload engine: one description of
// the paper's evaluation workloads (Section 8.1 length distributions,
// Section 8.2 stack/queue/TxApp/bimodal benchmarks, plus read-mostly,
// long-reader and hotspot/zipf extensions) that drives both execution
// backends — the cycle-level HTM simulator (via internal/workload)
// and the real-goroutine STM runtime (via STMRunner in this package).
//
// A scenario emits transactions as tiny register-machine programs
// over *word indices* of a flat shared arena: loads and stores with
// optional register-indirect addressing, plus pure-compute steps whose
// lengths are drawn from a dist.Sampler. The HTM adapter compiles one
// program to htm.Ops (each word on its own cache line); the STM
// runner interprets the same program against tx.Load/tx.Store. Both
// backends therefore execute the *same* access patterns from the same
// random streams, making sim-vs-real comparisons apples to apples.
//
// Every scenario carries a committed-state invariant (stack depth,
// queue occupancy, object sums against per-worker tallies) expressed
// against an abstract State, so any run on either backend doubles as
// an end-to-end serializability check.
//
// Scenarios are selected by name through ByName — the single registry
// behind cmd/stmbench's -scenario flag, cmd/paper's sections and the
// root benchmark suite.
package scenario

import (
	"fmt"

	"txconflict/internal/dist"
	"txconflict/internal/rng"
)

// maskAll is the no-op register mask for indirect addressing.
const maskAll = ^uint64(0)

// lenCap bounds sampled compute lengths, so heavy-tailed samplers
// (pareto, trace) cannot stall a run on one pathological draw.
const lenCap = 1e6

// OpKind distinguishes program steps.
type OpKind uint8

const (
	// OpRead loads the word at the effective index into register Dst.
	OpRead OpKind = iota
	// OpWrite stores (regs[Src] + Imm) — or just Imm when Src < 0 —
	// to the word at the effective index.
	OpWrite
	// OpCompute performs Cycles units of pure compute (simulated
	// cycles on the HTM backend, busy-work iterations on the STM).
	OpCompute
	// OpAdd adds the constant Imm to the word at the effective index —
	// a *tagged commutative* delta whose result is never observed by
	// the program. The STM backend lowers it to tx.Add, which the
	// group-commit combiner can fold with every other delta to the
	// same word in a batch (stm.Policy.FoldCommutative); the HTM
	// simulator compiles it to the read-modify-write a hardware TM
	// would execute, clobbering register Dst as scratch. Programs must
	// treat Dst as undefined after an OpAdd (the STM side has no
	// loaded value to put there).
	OpAdd
)

// Op is one step of a scenario transaction. The effective word index
// is Word when Reg < 0, and Word + (regs[Reg] & Mask) otherwise.
type Op struct {
	Kind   OpKind
	Word   int
	Reg    int
	Mask   uint64
	Cycles float64
	Dst    int
	Src    int
	Imm    uint64
}

// Load constructs a read of a static word into register dst.
func Load(word, dst int) Op {
	return Op{Kind: OpRead, Word: word, Reg: -1, Dst: dst, Src: -1}
}

// LoadAt constructs a read of word base + (regs[reg] & mask) into dst.
func LoadAt(base, reg int, mask uint64, dst int) Op {
	return Op{Kind: OpRead, Word: base, Reg: reg, Mask: mask, Dst: dst, Src: -1}
}

// Store constructs a write of regs[src]+imm to a static word.
func Store(word, src int, imm uint64) Op {
	return Op{Kind: OpWrite, Word: word, Reg: -1, Src: src, Imm: imm}
}

// StoreAt constructs a write of regs[src]+imm (or imm when src < 0)
// to word base + (regs[reg] & mask).
func StoreAt(base, reg int, mask uint64, src int, imm uint64) Op {
	return Op{Kind: OpWrite, Word: base, Reg: reg, Mask: mask, Src: src, Imm: imm}
}

// Work constructs a pure-compute step.
func Work(cycles float64) Op {
	return Op{Kind: OpCompute, Reg: -1, Src: -1, Cycles: cycles}
}

// Add constructs a commutative `word += imm` delta to a static word.
// Register 7 is the HTM backend's RMW scratch and is undefined after
// the op on both backends.
func Add(word int, imm uint64) Op {
	return Op{Kind: OpAdd, Word: word, Reg: -1, Dst: 7, Src: -1, Imm: imm}
}

// WordIndex resolves the op's effective word index against a register
// file.
func (op Op) WordIndex(regs *[8]uint64) int {
	if op.Reg < 0 {
		return op.Word
	}
	return op.Word + int(regs[op.Reg&7]&op.Mask)
}

// Value resolves the op's store value against a register file.
func (op Op) Value(regs *[8]uint64) uint64 {
	v := op.Imm
	if op.Src >= 0 {
		v += regs[op.Src&7]
	}
	return v
}

// Program is one transaction instance plus the non-transactional
// think time that follows it. Ops is the worker's own buffer, rewritten
// by that worker's next call to Next: run or copy it before drawing
// again.
type Program struct {
	Ops []Op
	// Think is the non-transactional compute after the transaction
	// commits, in the same units as Op.Cycles.
	Think float64
}

// State is the committed view a backend exposes for invariant
// checking: a word reader plus the per-worker committed-transaction
// counts.
type State struct {
	// Read returns the committed value of a word.
	Read func(word int) uint64
	// PerWorkerCommits counts committed transactions per worker.
	PerWorkerCommits []uint64
}

// Commits returns the total committed transactions.
func (st *State) Commits() uint64 {
	var total uint64
	for _, c := range st.PerWorkerCommits {
		total += c
	}
	return total
}

// Options parameterize a scenario instance obtained from ByName.
type Options struct {
	// Workers is the number of concurrent workers (simulator cores or
	// goroutines) the instance must support; per-worker state (parity
	// counters, tally words) is sized from it. 0 defaults to 64, the
	// HTM simulator's maximum core count.
	Workers int
	// Length overrides the scenario's default in-transaction compute
	// length sampler. Units are simulated cycles on the HTM backend
	// and busy-work iterations on the STM.
	Length dist.Sampler
	// Think overrides the scenario's default non-transactional
	// think-time sampler (default: constant 10).
	Think dist.Sampler
}

// Scenario is one instantiated workload: a named program generator
// over a sized arena, with a verifiable committed-state invariant.
// Next carries per-worker state (e.g. push/pop parity); each worker
// must be driven by a single goroutine, and distinct workers may run
// concurrently.
type Scenario struct {
	name    string
	desc    string
	workers int
	wordsFn func(workers int) int
	length  dist.Sampler
	think   dist.Sampler
	next    func(worker int, r *rng.Rand) Program
	check   func(st *State) error

	counts []uint64 // per-worker transaction parity/sequence state
	bufs   []opBuf  // per-worker backing array of the last Program
}

// opBuf is one worker's op buffer, padded to a cache line so workers
// on different CPUs rewriting adjacent slice headers do not share one.
type opBuf struct {
	ops []Op
	_   [64 - 24]byte
}

// Name identifies the scenario in tables and CLI flags.
func (s *Scenario) Name() string { return s.name }

// Description is the one-line summary shown by CLI listings.
func (s *Scenario) Description() string { return s.desc }

// Workers returns the worker count the instance is sized for.
func (s *Scenario) Workers() int { return s.workers }

// Words returns the arena size (in words) the scenario needs at its
// current worker count.
func (s *Scenario) Words() int { return s.wordsFn(s.workers) }

// Next returns the next transaction program for the given worker,
// valid until the same worker's next call (see Program).
// It panics with a descriptive message when worker is outside the
// configured range — per-worker state cannot be grown safely while
// other workers are running.
func (s *Scenario) Next(worker int, r *rng.Rand) Program {
	if worker < 0 || worker >= s.workers {
		panic(fmt.Sprintf(
			"scenario %s: worker %d out of range (instance sized for %d workers; set Options.Workers or call EnsureWorkers before starting)",
			s.name, worker, s.workers))
	}
	return s.next(worker, r)
}

// Check verifies the scenario's committed-state invariant.
func (s *Scenario) Check(st *State) error { return s.check(st) }

// EnsureWorkers grows the per-worker state to support n workers. It
// never shrinks. It must be called before any worker starts (the
// HTM machine calls it with the actual core count at construction);
// growing a scenario that already feeds a sized STM arena is invalid.
func (s *Scenario) EnsureWorkers(n int) {
	if n <= s.workers {
		return
	}
	grown := make([]uint64, n)
	copy(grown, s.counts)
	s.counts = grown
	bufs := make([]opBuf, n)
	copy(bufs, s.bufs)
	s.bufs = bufs
	s.workers = n
}

// program assembles a worker's next Program in its buffer, so a warm
// scenario hands out transactions without allocating. ops may be that
// buffer itself, filled through scratch. Arguments are evaluated left
// to right: a generator that draws its length before its think time
// draws the length into a local first, or the random stream shifts.
func (s *Scenario) program(worker int, think float64, ops ...Op) Program {
	b := &s.bufs[worker]
	b.ops = append(b.ops[:0], ops...)
	return Program{Ops: b.ops, Think: think}
}

// scratch returns the worker's buffer, emptied, for programs built by
// appending; the result goes back through program.
func (s *Scenario) scratch(worker int) []Op { return s.bufs[worker].ops[:0] }

// seq returns the worker's transaction sequence number and advances
// it. Only the worker's own goroutine touches its slot.
func (s *Scenario) seq(worker int) uint64 {
	n := s.counts[worker]
	s.counts[worker]++
	return n
}

// sampleLen draws one in-transaction compute length, clamped to
// [0, lenCap].
func (s *Scenario) sampleLen(r *rng.Rand) float64 {
	v := s.length.Sample(r)
	if v < 0 {
		return 0
	}
	if v > lenCap {
		return lenCap
	}
	return v
}

// sampleThink draws one think time, clamped to [0, lenCap].
func (s *Scenario) sampleThink(r *rng.Rand) float64 {
	v := s.think.Sample(r)
	if v < 0 {
		return 0
	}
	if v > lenCap {
		return lenCap
	}
	return v
}
