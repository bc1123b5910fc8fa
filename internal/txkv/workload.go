package txkv

import (
	"fmt"
	"sort"
	"strings"

	"txconflict/internal/dist"
	"txconflict/internal/rng"
)

// Totals aggregates the side effects the final workload check needs:
// the part of a run's history the quiescent store cannot reproduce.
type Totals struct {
	// Adds is the sum of deltas applied by successful add ops.
	Adds uint64
}

// User is one closed-loop client: an op generator plus a response
// validator, both confined to the user's own goroutine.
type User struct {
	// Next draws the user's next op from its (skewed) working set.
	Next func(r *rng.Rand) Op
	// Observe validates one response; a non-nil error is an
	// isolation-violation verdict and fails the whole run. Nil when
	// the workload has nothing to check per-response.
	Observe func(op Op, res Result) error
	// totals accumulates this user's contribution to the final check.
	totals Totals
}

// Options is the (empty) per-instance argument of ByName: every
// workload runs at its own keyspace and zipf skew.
type Options struct{}

// Workload is one named keyed traffic shape: a user factory over a
// keyspace, plus the committed-state check that closes the loop.
type Workload struct {
	name, desc string
	keys       uint64
	capacity   int
	newUser    func(u int, opt *Workload) *User
	check      func(s *Store, tot Totals) error

	keyDist *dist.Zipf // ranks 1..keys, skewed toward rank 1
}

// Name identifies the workload in flags and test cell names.
func (w *Workload) Name() string { return w.name }

// Description is the one-line summary for CLI listings.
func (w *Workload) Description() string { return w.desc }

// Capacity returns the store bucket count the workload needs.
func (w *Workload) Capacity() int { return w.capacity }

// NewStore builds a store sized for the workload on the given STM
// configuration.
func (w *Workload) NewStore(cfg Config) *Store {
	if cfg.Capacity == 0 {
		cfg.Capacity = w.Capacity()
	}
	return New(cfg)
}

// NewUser builds user u's closed-loop client state.
func (w *Workload) NewUser(u int) *User { return w.newUser(u, w) }

// Check verifies the workload's semantic invariant against the
// quiescent store and the run's aggregated totals. Structural map
// invariants are separate (Store.CheckInvariants).
func (w *Workload) Check(s *Store, tot Totals) error { return w.check(s, tot) }

// sampleKey draws one key from the workload's skewed working set:
// a zipf rank in [1, keys], folded into [0, keys) (rank keys is key 0).
func (w *Workload) sampleKey(r *rng.Rand) uint64 {
	return uint64(w.keyDist.Sample(r)) % w.keys
}

// workloadDefs is the keyed-traffic catalog. Names are stable CLI
// identifiers (cmd/txkvd -workload).
var workloadDefs = []struct {
	name, desc string
	build      func() *Workload
}{
	{"readmostly", "90% get / 8% put / 2% delete over a zipf working set", newReadMostly},
	{"hotspot-counter", "keyed increments on a small, strongly zipf-skewed counter set", newHotspotCounter},
	{"document", "8-field document updates vs atomic document reads (all-or-nothing visibility)", newDocument},
}

// Names returns the sorted workload names ByName accepts.
func Names() []string {
	names := make([]string, 0, len(workloadDefs))
	for _, d := range workloadDefs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// Describe returns "name: description" lines for CLI help.
func Describe() []string {
	out := make([]string, 0, len(workloadDefs))
	for _, d := range workloadDefs {
		out = append(out, d.name+": "+d.desc)
	}
	return out
}

// ByName instantiates the named workload.
func ByName(name string, _ Options) (*Workload, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, d := range workloadDefs {
		if d.name == want {
			w := d.build()
			w.name, w.desc = d.name, d.desc
			return w, nil
		}
	}
	return nil, fmt.Errorf("txkv: unknown workload %q (have %s)",
		name, strings.Join(Names(), ", "))
}

// finish builds the key sampler — rank 1 is the hottest key, the tail
// falls off as rank^-skew — and derives the store capacity (2x the
// keyspace, so probe paths stay short at full occupancy).
func finish(w *Workload, skew float64) *Workload {
	w.keyDist = dist.NewZipf(int(w.keys), skew, 1)
	w.capacity = int(2 * w.keys)
	return w
}

// newReadMostly builds the read-dominated workload: the keyed
// analogue of the readmostly scenario. Its semantic content is
// structural — overwrites race benignly — so the map/index
// invariants carry the whole check.
func newReadMostly() *Workload {
	w := &Workload{
		keys: 1024,
	}
	w.newUser = func(u int, w *Workload) *User {
		return &User{
			Next: func(r *rng.Rand) Op {
				key := w.sampleKey(r)
				switch {
				case r.Bool(0.90):
					return Op{Kind: KindGet, Key: key}
				case r.Bool(0.80):
					return Op{Kind: KindPut, Key: key, Val: uint64(u)<<32 | r.Uint64()&0xffff}
				default:
					return Op{Kind: KindDelete, Key: key}
				}
			},
		}
	}
	w.check = func(s *Store, tot Totals) error {
		if n := uint64(s.Len()); n > w.keys {
			return fmt.Errorf("readmostly: %d live keys exceed the %d-key keyspace", n, w.keys)
		}
		return nil
	}
	return finish(w, 1.05)
}

// newHotspotCounter builds the contended-counter workload: every op
// is a keyed read-modify-write increment, and the strong zipf skew
// funnels most of them onto a handful of keys — the serving-stack
// version of the hotspot scenario. Lost updates show up directly:
// the committed counter sum must equal the number of applied adds.
func newHotspotCounter() *Workload {
	w := &Workload{
		keys: 128,
	}
	w.newUser = func(u int, w *Workload) *User {
		usr := &User{}
		usr.Next = func(r *rng.Rand) Op {
			return Op{Kind: KindAdd, Key: w.sampleKey(r), Val: 1}
		}
		usr.Observe = func(op Op, res Result) error {
			if res.Err != "" {
				return fmt.Errorf("hotspot-counter: add failed: %s", res.Err)
			}
			usr.totals.Adds += op.Val
			return nil
		}
		return usr
	}
	w.check = func(s *Store, tot Totals) error {
		var sum uint64
		s.Range(func(_, val uint64) { sum += val })
		if sum != tot.Adds {
			return fmt.Errorf("hotspot-counter: committed counter sum %d, want %d applied adds",
				sum, tot.Adds)
		}
		return nil
	}
	return finish(w, 1.2)
}

// docFields is the document workload's fields-per-document.
const docFields = 8

// newDocument builds the multi-key document workload: updates write
// one value to all eight fields of a zipf-chosen document in a
// single transaction, and reads assert the fields are equal — the
// all-or-nothing visibility invariant, checked on every read and
// again over the quiescent store.
func newDocument() *Workload {
	w := &Workload{
		keys: 64 * docFields, // 64 documents
	}
	docs := func(w *Workload) uint64 { return w.keys / docFields }
	w.newUser = func(u int, w *Workload) *User {
		seq := uint64(0)
		usr := &User{}
		usr.Next = func(r *rng.Rand) Op {
			doc := w.sampleKey(r) % docs(w)
			base := doc * docFields
			if r.Bool(0.75) {
				seq++
				return Op{Kind: KindUpdateDoc, Key: base, Fields: docFields,
					Val: uint64(u+1)<<24 | seq}
			}
			return Op{Kind: KindReadDoc, Key: base, Fields: docFields}
		}
		usr.Observe = func(op Op, res Result) error {
			if res.Err != "" {
				return fmt.Errorf("document: %s op failed: %s", op.Kind, res.Err)
			}
			if op.Kind == KindReadDoc {
				for _, v := range res.Vals {
					if v != res.Vals[0] {
						return fmt.Errorf("document: torn read of doc %d: fields %v",
							op.Key/docFields, res.Vals)
					}
				}
			}
			return nil
		}
		return usr
	}
	w.check = func(s *Store, tot Totals) error {
		ops := make([]Op, docs(w))
		for d := range ops {
			ops[d] = Op{Kind: KindReadDoc, Key: uint64(d) * docFields, Fields: docFields}
		}
		for d, res := range s.ApplyBatch(-1, rng.New(1), ops) {
			if res.Err != "" {
				return fmt.Errorf("document: reading doc %d: %s", d, res.Err)
			}
			for _, v := range res.Vals {
				if v != res.Vals[0] {
					return fmt.Errorf("document: doc %d committed fields differ: %v", d, res.Vals)
				}
			}
		}
		return nil
	}
	return finish(w, 1.1)
}
