package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"txconflict/internal/dist"
	"txconflict/internal/rng"
)

// Arena layout shared by the object-array scenarios: 64 objects at
// words 0..63 (each on its own line under the HTM backend), matching
// the paper's "two out of a set of 64 objects" application. The
// tally-carrying scenarios append one private word per worker at
// tallyBase+worker.
const (
	objects   = 64
	tallyBase = objects
)

// queueRing is the slot count of the queue scenario's ring (a power
// of two, so slot indexing is a mask).
const queueRing = 64

type def struct {
	name  string
	desc  string
	build func(opt Options) *Scenario
}

// defs is the scenario catalog: the static built-ins below plus any
// Register-ed entries (trace replays register as "replay:<name>").
// Names are stable CLI identifiers; defsMu guards the slice against
// concurrent Register/ByName.
var (
	defsMu sync.RWMutex
	defs   = []def{
		{"stack", "contended stack: per-worker alternating push/pop on a shared top pointer", newStack},
		{"queue", "contended ring queue: per-worker alternating enqueue/dequeue on head/tail", newQueue},
		{"txapp", "transactional application: increment 2 uniform-random objects of 64", newTxApp},
		{"bimodal", "txapp alternating short and very long transactions", newBimodal},
		{"readmostly", "read 6 objects, write one with p=0.2 (per-worker tally invariant)", newReadMostly},
		{"longreader", "worker 0 scans all 64 objects while the rest do short increments", newLongReader},
		{"hotspot", "txapp with zipf-skewed object choice and pareto-tailed lengths", newHotspot},
	}
)

// Register adds a scenario constructor to the ByName catalog (names
// fold to lower case, matching lookup). The builder must return a
// ready scenario for any Options; name and description are stamped on
// by ByName like the built-ins. Registering an empty, reserved or
// already-taken name is an error — built-ins cannot be shadowed.
func Register(name, desc string, build func(opt Options) *Scenario) error {
	key := strings.ToLower(strings.TrimSpace(name))
	switch key {
	case "":
		return fmt.Errorf("scenario: cannot register an empty scenario name")
	case "all", "list":
		return fmt.Errorf("scenario: name %q is reserved by the CLIs", key)
	}
	if build == nil {
		return fmt.Errorf("scenario: nil builder for %q", key)
	}
	defsMu.Lock()
	defer defsMu.Unlock()
	for _, d := range defs {
		if d.name == key {
			return fmt.Errorf("scenario: scenario %q already registered", key)
		}
	}
	defs = append(defs, def{name: key, desc: desc, build: build})
	return nil
}

// Names returns the sorted scenario names ByName accepts.
func Names() []string {
	defsMu.RLock()
	defer defsMu.RUnlock()
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// Describe returns "name: description" lines for CLI help, in
// catalog order.
func Describe() []string {
	defsMu.RLock()
	defer defsMu.RUnlock()
	out := make([]string, 0, len(defs))
	for _, d := range defs {
		out = append(out, d.name+": "+d.desc)
	}
	return out
}

// ByName instantiates the named scenario with the given options.
func ByName(name string, opt Options) (*Scenario, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	defsMu.RLock()
	for _, d := range defs {
		if d.name == want {
			build, dn, dd := d.build, d.name, d.desc
			defsMu.RUnlock()
			s := build(opt)
			s.name, s.desc = dn, dd
			return s, nil
		}
	}
	defsMu.RUnlock()
	return nil, fmt.Errorf("scenario: unknown scenario %q (have %s)",
		name, strings.Join(Names(), ", "))
}

// newBase assembles the common scenario plumbing: worker sizing and
// the length/think samplers with their per-scenario defaults. Name
// and description are stamped on by ByName.
func newBase(opt Options, defLen dist.Sampler, wordsFn func(workers int) int) *Scenario {
	workers := opt.Workers
	if workers <= 0 {
		workers = 64
	}
	length := opt.Length
	if length == nil {
		length = defLen
	}
	think := opt.Think
	if think == nil {
		think = dist.Constant{V: 10}
	}
	return &Scenario{
		workers: workers,
		wordsFn: wordsFn,
		length:  length,
		think:   think,
		counts:  make([]uint64, workers),
		bufs:    make([]opBuf, workers),
	}
}

// newStack builds the contended-stack scenario.
//
// Word layout: [0] depth ("top"), [1..workers+1) elements. Each
// worker strictly alternates push and pop, so the committed depth is
// Σ_worker (commits mod 2) and the element index never escapes the
// arena.
func newStack(opt Options) *Scenario {
	s := newBase(opt, dist.Constant{V: 15},
		func(workers int) int { return workers + 2 })
	s.next = func(worker int, r *rng.Rand) Program {
		n := s.seq(worker)
		l := s.sampleLen(r)
		think := s.sampleThink(r)
		if n%2 == 0 {
			// push: r0 = depth; elem[1+r0] = tag; depth = r0 + 1
			return s.program(worker, think,
				Load(0, 0),
				Work(l),
				StoreAt(1, 0, maskAll, -1, uint64(worker)+1),
				Store(0, 0, 1),
			)
		}
		// pop: r0 = depth; r1 = elem[1+(r0-1)] = word r0; depth = r0 - 1
		return s.program(worker, think,
			Load(0, 0),
			Work(l),
			LoadAt(0, 0, maskAll, 1),
			Store(0, 0, ^uint64(0)),
		)
	}
	s.check = func(st *State) error {
		var want uint64
		for _, c := range st.PerWorkerCommits {
			want += c % 2
		}
		if got := st.Read(0); got != want {
			return fmt.Errorf("stack: committed depth %d, want %d (per-worker commits %v)",
				got, want, st.PerWorkerCommits)
		}
		return nil
	}
	return s
}

// newQueue builds the contended-queue scenario.
//
// Word layout: [0] head count, [1] tail count, [2..2+queueRing) ring
// slots. Per-worker alternation of enqueue/dequeue gives the
// committed invariant tail = Σ ceil(c/2), head = Σ floor(c/2).
func newQueue(opt Options) *Scenario {
	s := newBase(opt, dist.Constant{V: 15},
		func(int) int { return 2 + queueRing })
	s.next = func(worker int, r *rng.Rand) Program {
		n := s.seq(worker)
		l := s.sampleLen(r)
		think := s.sampleThink(r)
		if n%2 == 0 {
			// enqueue: r0 = tail; slot[r0 & mask] = tag; tail = r0 + 1
			return s.program(worker, think,
				Load(1, 0),
				Work(l),
				StoreAt(2, 0, queueRing-1, -1, uint64(worker)+1),
				Store(1, 0, 1),
			)
		}
		// dequeue: r0 = head; r1 = slot[r0 & mask]; head = r0 + 1
		return s.program(worker, think,
			Load(0, 0),
			Work(l),
			LoadAt(2, 0, queueRing-1, 1),
			Store(0, 0, 1),
		)
	}
	s.check = func(st *State) error {
		var wantTail, wantHead uint64
		for _, c := range st.PerWorkerCommits {
			wantTail += (c + 1) / 2
			wantHead += c / 2
		}
		head, tail := st.Read(0), st.Read(1)
		if head > tail {
			return fmt.Errorf("queue: head %d beyond tail %d", head, tail)
		}
		if tail != wantTail || head != wantHead {
			return fmt.Errorf("queue: head/tail = %d/%d, want %d/%d (per-worker commits %v)",
				head, tail, wantHead, wantTail, st.PerWorkerCommits)
		}
		return nil
	}
	return s
}

// appProgram is the 2-objects transactional-application body shared
// by txapp and bimodal: read both objects, compute, add one to each.
// Committed invariant: Σ objects = 2 · commits.
func (s *Scenario) appProgram(worker, i, j int, l, think float64) Program {
	return s.program(worker, think,
		Load(i, 0),
		Load(j, 1),
		Work(l),
		Store(i, 0, 1),
		Store(j, 1, 1),
	)
}

func appCheck(st *State) error {
	var sum uint64
	for w := 0; w < objects; w++ {
		sum += st.Read(w)
	}
	if want := 2 * st.Commits(); sum != want {
		return fmt.Errorf("app: object sum %d, want %d (commits %d)",
			sum, want, st.Commits())
	}
	return nil
}

func newApp(opt Options, defLen dist.Sampler, pick func(r *rng.Rand) (int, int)) *Scenario {
	s := newBase(opt, defLen, func(int) int { return objects })
	s.next = func(worker int, r *rng.Rand) Program {
		i, j := pick(r)
		return s.appProgram(worker, i, j, s.sampleLen(r), s.sampleThink(r))
	}
	s.check = appCheck
	return s
}

// newTxApp builds the uniform transactional application (2 uniform
// objects of 64, constant compute).
func newTxApp(opt Options) *Scenario {
	return newApp(opt, dist.Constant{V: 60},
		func(r *rng.Rand) (int, int) { return r.TwoDistinct(objects) })
}

// newBimodal builds the bimodal application: the compute length mixes
// a short and a very long mode (the regime where hand-tuned grace
// periods lose to the randomized strategy, Figure 3 bottom right).
func newBimodal(opt Options) *Scenario {
	return newApp(opt,
		dist.Bimodal{Short: 50, Long: 5000, PShort: 0.5},
		func(r *rng.Rand) (int, int) { return r.TwoDistinct(objects) })
}

// newHotspot builds the zipf/pareto scenario absent from the seed:
// object choice is rank-skewed (object 0 hottest) so a few words
// absorb most conflicts, and the default compute length is
// heavy-tailed pareto — the adversarial end of realistic workloads.
// Unlike txapp/bimodal, the two increments are *tagged commutative*
// deltas (OpAdd): the program never observes the counters, so the STM
// combiner may fold colliding increments under Policy.FoldCommutative
// instead of serializing them. Semantics and the Σ objects =
// 2 · commits invariant are identical either way.
func newHotspot(opt Options) *Scenario {
	z := dist.NewZipf(objects, 1.1, 1)
	pick := func(r *rng.Rand) (int, int) {
		i := int(z.Sample(r)) - 1
		j := i
		for j == i {
			j = int(z.Sample(r)) - 1
		}
		return i, j
	}
	s := newBase(opt, dist.ParetoMean(60, 2.5), func(int) int { return objects })
	s.next = func(worker int, r *rng.Rand) Program {
		i, j := pick(r)
		l := s.sampleLen(r)
		return s.program(worker, s.sampleThink(r),
			Work(l),
			Add(i, 1),
			Add(j, 1),
		)
	}
	s.check = func(st *State) error {
		var sum uint64
		for w := 0; w < objects; w++ {
			sum += st.Read(w)
		}
		if want := 2 * st.Commits(); sum != want {
			return fmt.Errorf("hotspot: object sum %d, want %d (commits %d)",
				sum, want, st.Commits())
		}
		return nil
	}
	return s
}

// newReadMostly builds the read-mostly scenario: each transaction
// reads 6 distinct objects and, with probability 0.2, increments the
// first of them together with the worker's private tally word.
// Committed invariant: Σ objects = Σ tallies.
func newReadMostly(opt Options) *Scenario {
	const reads = 6
	const pWrite = 0.2
	s := newBase(opt, dist.Constant{V: 20},
		func(workers int) int { return tallyBase + workers })
	s.next = func(worker int, r *rng.Rand) Program {
		var objs [reads]int
		for k := 0; k < reads; k++ {
		redraw:
			o := r.Intn(objects)
			for m := 0; m < k; m++ {
				if objs[m] == o {
					goto redraw
				}
			}
			objs[k] = o
		}
		ops := s.scratch(worker)
		for k, o := range objs {
			ops = append(ops, Load(o, k))
		}
		ops = append(ops, Work(s.sampleLen(r)))
		if r.Bool(pWrite) {
			ops = append(ops,
				Store(objs[0], 0, 1),
				Load(tallyBase+worker, 7),
				Store(tallyBase+worker, 7, 1),
			)
		}
		return s.program(worker, s.sampleThink(r), ops...)
	}
	s.check = tallyCheck(s)
	return s
}

// newLongReader builds the long-reader scenario: worker 0 runs long
// read-only scans of the whole object array (the transactional-reader
// invalidation chain the requestor-wins strategies target) while the
// remaining workers do short tallied increments. Committed
// invariant: Σ objects = Σ tallies (the reader never writes). With a
// single worker the scenario degenerates to the writer role so
// single-threaded runs still make progress.
func newLongReader(opt Options) *Scenario {
	s := newBase(opt, dist.Constant{V: 40},
		func(workers int) int { return tallyBase + workers })
	s.next = func(worker int, r *rng.Rand) Program {
		if worker == 0 && s.workers > 1 {
			ops := s.scratch(worker)
			for w := 0; w < objects; w++ {
				ops = append(ops, Load(w, w&3))
			}
			// The reader's compute is 20x the writers', re-clamped so a
			// heavy-tailed override still respects the lenCap bound.
			scan := 20 * s.sampleLen(r)
			if scan > lenCap {
				scan = lenCap
			}
			ops = append(ops, Work(scan))
			return s.program(worker, s.sampleThink(r), ops...)
		}
		obj := r.Intn(objects)
		l := s.sampleLen(r)
		return s.program(worker, s.sampleThink(r),
			Load(obj, 0),
			Load(tallyBase+worker, 1),
			Work(l),
			Store(obj, 0, 1),
			Store(tallyBase+worker, 1, 1),
		)
	}
	s.check = tallyCheck(s)
	return s
}

// tallyCheck returns the shared object-sum-vs-tallies invariant: the
// object array's committed total equals the sum of the per-worker
// tally words, each incremented in the same transaction as its
// object write.
func tallyCheck(s *Scenario) func(st *State) error {
	return func(st *State) error {
		var sum, tallies uint64
		for w := 0; w < objects; w++ {
			sum += st.Read(w)
		}
		for w := 0; w < s.workers; w++ {
			tallies += st.Read(tallyBase + w)
		}
		if sum != tallies {
			return fmt.Errorf("%s: object sum %d, want tally sum %d", s.name, sum, tallies)
		}
		return nil
	}
}
