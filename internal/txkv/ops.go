package txkv

import (
	"fmt"

	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

// Op is one keyed operation in a batch request — the wire unit of
// the txkvd front-end and the load generator. Kind selects the
// operation; unused fields are ignored.
type Op struct {
	Kind   string `json:"op"`
	Key    uint64 `json:"key"`
	Val    uint64 `json:"val,omitempty"`
	Fields int    `json:"fields,omitempty"` // document ops
}

// Op kinds. Each op executes as its own transaction; a batch
// amortizes the network round trip, not the commit.
const (
	KindGet       = "get"
	KindPut       = "put"
	KindDelete    = "del"
	KindAdd       = "add"
	KindUpdateDoc = "updatedoc"
	KindReadDoc   = "readdoc"
)

// Result is one op's outcome. Err carries user-level errors (map
// full, bad key, unknown kind); transactional retries never surface
// here — the runtime retries until commit.
type Result struct {
	Val   uint64   `json:"val,omitempty"`
	Vals  []uint64 `json:"vals,omitempty"` // readdoc
	Found bool     `json:"found,omitempty"`
	Err   string   `json:"err,omitempty"`
}

// Apply executes one op as a transaction on the store.
func (s *Store) Apply(worker int, r *rng.Rand, op Op) Result {
	w := s.rt.Worker(worker, r)
	res := s.apply(&w, op)
	w.Release()
	return res
}

// apply runs one op as one atomic block on the handle.
func (s *Store) apply(w *stm.Worker, op Op) Result {
	switch op.Kind {
	case KindGet:
		v, ok, err := s.runGet(w, op.Key)
		return result(Result{Val: v, Found: ok}, err)
	case KindPut:
		return result(Result{}, s.runPut(w, op.Key, op.Val))
	case KindDelete:
		ok, err := s.runDelete(w, op.Key)
		return result(Result{Found: ok}, err)
	case KindAdd:
		v, err := s.runAdd(w, op.Key, op.Val)
		return result(Result{Val: v}, err)
	case KindUpdateDoc:
		if op.Fields <= 0 {
			return Result{Err: "txkv: updatedoc with no fields"}
		}
		return result(Result{}, s.runUpdateDoc(w, op.Key, op.Fields, op.Val))
	case KindReadDoc:
		if op.Fields <= 0 {
			return Result{Err: "txkv: readdoc with no fields"}
		}
		vals, err := s.runReadDoc(w, op.Key, op.Fields)
		return result(Result{Vals: vals}, err)
	default:
		return Result{Err: fmt.Sprintf("txkv: unknown op kind %q", op.Kind)}
	}
}

// ApplyBatch executes a batch in order, one transaction per op, and
// returns a slice the caller owns.
func (s *Store) ApplyBatch(worker int, r *rng.Rand, ops []Op) []Result {
	return s.ApplyBatchInto(nil, worker, r, ops)
}

// ApplyBatchInto is ApplyBatch writing the results over dst's memory
// when it has room for them (a nil or short dst is replaced), so a
// serving loop can reuse one result slice per request. The ops run
// back to back on one stm.Worker handle opened for this batch: one
// descriptor for all of them, and each op's transaction starts at the
// stamp the previous one ended at, so its attempt and commit latencies
// include the few nanoseconds of dispatch between the two.
func (s *Store) ApplyBatchInto(dst []Result, worker int, r *rng.Rand, ops []Op) []Result {
	if dst == nil || cap(dst) < len(ops) {
		dst = make([]Result, len(ops))
	}
	dst = dst[:len(ops)]
	w := s.rt.Worker(worker, r)
	for i, op := range ops {
		dst[i] = s.apply(&w, op)
	}
	w.Release()
	return dst
}

func result(res Result, err error) Result {
	if err != nil {
		res.Err = err.Error()
	}
	return res
}
