package scenario

import (
	"fmt"

	"txconflict/internal/dist"
	"txconflict/internal/rng"
)

// The kv* scenarios are the internal/txkv traffic shapes ported into
// the backend-agnostic registry, so the HTM simulator and the real
// STM runtime can compare on *keyed* access patterns — zipf-skewed
// hot keys, multi-key document writes, read-mostly keyed scans — not
// just the paper's object-array microbenchmarks. The register
// machine has no branches, so the shapes use a direct-mapped
// keyspace (key k lives at word k; the txkv hash map's probe paths
// collapse to one word), keeping the conflict structure of keyed
// traffic while staying expressible on both backends.
//
// Word layouts reuse the object-array conventions: kvKeys value
// words at [0, kvKeys), then (where needed) one private tally word
// per worker at kvKeys+worker.
const (
	kvKeys      = 64
	kvDocFields = 4
	kvDocs      = kvKeys / kvDocFields
)

func init() {
	for _, d := range []struct {
		name, desc string
		build      func(opt Options) *Scenario
	}{
		{"kvcounter", "keyed counter increments on a zipf-hot working set (txkv hotspot-counter shape)", newKVCounter},
		{"kvread", "keyed read-mostly traffic: 4 zipf-skewed gets, occasional tallied put (txkv readmostly shape)", newKVRead},
		{"kvdoc", "atomic 4-field document bumps; fields must never tear (txkv document shape)", newKVDoc},
	} {
		if err := Register(d.name, d.desc, d.build); err != nil {
			panic(err)
		}
	}
}

// newKVCounter builds the keyed hotspot-counter shape: each
// transaction increments one zipf-chosen counter word and the
// worker's private tally in the same transaction, both as tagged
// commutative deltas (OpAdd — the txkv escrow-counter shape: the
// program never observes either value, so the STM combiner may fold
// colliding increments under Policy.FoldCommutative; everywhere else
// the deltas lower to the classic read-modify-write). Committed
// invariant: Σ counters = Σ tallies — a lost counter update breaks
// it immediately.
func newKVCounter(opt Options) *Scenario {
	z := dist.NewZipf(kvKeys, 1.2, 1)
	s := newBase(opt, dist.Constant{V: 40},
		func(workers int) int { return kvKeys + workers })
	s.next = func(worker int, r *rng.Rand) Program {
		key := int(z.Sample(r)) - 1
		l := s.sampleLen(r)
		return s.program(worker, s.sampleThink(r),
			Work(l),
			Add(key, 1),
			Add(kvKeys+worker, 1),
		)
	}
	s.check = kvTallyCheck(s)
	return s
}

// newKVRead builds the keyed read-mostly shape: read 4 distinct
// zipf-skewed keys, and with p=0.1 increment the first together with
// the worker's tally. Same Σ values = Σ tallies invariant; the load
// is dominated by read-set validation on hot words.
func newKVRead(opt Options) *Scenario {
	const reads = 4
	const pWrite = 0.1
	z := dist.NewZipf(kvKeys, 1.05, 1)
	s := newBase(opt, dist.Constant{V: 20},
		func(workers int) int { return kvKeys + workers })
	s.next = func(worker int, r *rng.Rand) Program {
		var keys [reads]int
		for k := 0; k < reads; k++ {
		redraw:
			key := int(z.Sample(r)) - 1
			for m := 0; m < k; m++ {
				if keys[m] == key {
					goto redraw
				}
			}
			keys[k] = key
		}
		ops := s.scratch(worker)
		for k, key := range keys {
			ops = append(ops, Load(key, k))
		}
		ops = append(ops, Work(s.sampleLen(r)))
		if r.Bool(pWrite) {
			ops = append(ops,
				Store(keys[0], 0, 1),
				Load(kvKeys+worker, 5),
				Store(kvKeys+worker, 5, 1),
			)
		}
		return s.program(worker, s.sampleThink(r), ops...)
	}
	s.check = kvTallyCheck(s)
	return s
}

// newKVDoc builds the multi-key document shape: bump all four fields
// of a zipf-chosen document by one in a single transaction (read
// field 0, write old+1 to every field). Committed invariants: all
// fields of every document are equal (all-or-nothing visibility —
// a torn document is a direct serializability violation), and
// Σ field-0 values = total commits.
func newKVDoc(opt Options) *Scenario {
	z := dist.NewZipf(kvDocs, 1.1, 1)
	s := newBase(opt, dist.Constant{V: 40},
		func(int) int { return kvKeys })
	s.next = func(worker int, r *rng.Rand) Program {
		doc := int(z.Sample(r)) - 1
		base := doc * kvDocFields
		ops := append(s.scratch(worker), Load(base, 0), Work(s.sampleLen(r)))
		for f := 0; f < kvDocFields; f++ {
			ops = append(ops, Store(base+f, 0, 1))
		}
		return s.program(worker, s.sampleThink(r), ops...)
	}
	s.check = func(st *State) error {
		var sum uint64
		for d := 0; d < kvDocs; d++ {
			base := d * kvDocFields
			v0 := st.Read(base)
			for f := 1; f < kvDocFields; f++ {
				if v := st.Read(base + f); v != v0 {
					return fmt.Errorf("kvdoc: document %d torn: field 0 = %d, field %d = %d",
						d, v0, f, v)
				}
			}
			sum += v0
		}
		if commits := st.Commits(); sum != commits {
			return fmt.Errorf("kvdoc: document bump sum %d, want %d commits", sum, commits)
		}
		return nil
	}
	return s
}

// kvTallyCheck is the Σ keyed values = Σ per-worker tallies
// invariant shared by kvcounter and kvread.
func kvTallyCheck(s *Scenario) func(st *State) error {
	return func(st *State) error {
		var sum, tallies uint64
		for k := 0; k < kvKeys; k++ {
			sum += st.Read(k)
		}
		for w := 0; w < s.workers; w++ {
			tallies += st.Read(kvKeys + w)
		}
		if sum != tallies {
			return fmt.Errorf("%s: keyed value sum %d, want tally sum %d", s.name, sum, tallies)
		}
		return nil
	}
}
