package txkv

import (
	"fmt"

	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

// Op is one keyed operation in a batch request — the wire unit of
// the txkvd front-end and, in batches, the only way into a Store.
// Kind selects the operation; unused fields are ignored.
type Op struct {
	Kind   string `json:"op"`
	Key    uint64 `json:"key"`
	Val    uint64 `json:"val,omitempty"`
	Fields int    `json:"fields,omitempty"` // document ops
}

// Op kinds. Each op executes as its own transaction; a batch
// amortizes the network round trip, not the commit.
const (
	// KindGet returns Key's value in Val, Found reporting presence.
	KindGet = "get"
	// KindPut inserts or updates Key to Val.
	KindPut = "put"
	// KindDelete removes Key, Found reporting whether it was present.
	KindDelete = "del"
	// KindAdd increments Key's value by Val, inserting Val when the key
	// is absent, and returns the new value in Val — except in escrow
	// mode (Config.EscrowCounters), where an increment of an existing
	// key is recorded blind via tx.Add so the batch combiner can fold
	// it: the transaction never learns the value, and the result's Val
	// is 0 (inserts still return Val). A caller that needs the
	// post-increment value must get it in a separate transaction.
	KindAdd = "add"
	// KindUpdateDoc writes Val to the Fields keys Key, Key+1, ... in
	// one transaction.
	KindUpdateDoc = "updatedoc"
	// KindReadDoc reads the Fields keys Key, Key+1, ... in one
	// transaction into Vals (absent fields read as 0).
	KindReadDoc = "readdoc"
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

// applyInto runs one op as one atomic block on the handle and writes
// its outcome straight into the caller's slot. The slot is overwritten
// whole before anything else: a serving loop recycles its result slice,
// and no Vals or Err of the previous request may survive into this one.
func (s *Store) applyInto(res *Result, w *stm.Worker, op Op) {
	*res = Result{}
	var err error
	switch op.Kind {
	case KindGet:
		res.Val, res.Found, err = s.runGet(w, op.Key)
	case KindPut:
		err = s.runPut(w, op.Key, op.Val)
	case KindDelete:
		res.Found, err = s.runDelete(w, op.Key)
	case KindAdd:
		res.Val, err = s.runAdd(w, op.Key, op.Val)
	case KindUpdateDoc:
		if op.Fields <= 0 {
			res.Err = "txkv: updatedoc with no fields"
			return
		}
		err = s.runUpdateDoc(w, op.Key, op.Fields, op.Val)
	case KindReadDoc:
		if op.Fields <= 0 {
			res.Err = "txkv: readdoc with no fields"
			return
		}
		res.Vals, err = s.runReadDoc(w, op.Key, op.Fields)
	default:
		res.Err = fmt.Sprintf("txkv: unknown op kind %q", op.Kind)
		return
	}
	if err != nil {
		res.Err = err.Error()
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
	for i := range ops {
		s.applyInto(&dst[i], &w, ops[i])
	}
	w.Release()
	return dst
}

// Client executes one batch of ops — either in-process against a
// Store (LocalClient) or over HTTP against a txkvd server
// (HTTPClient in server.go). The results Do returns are written over
// one slice the client keeps: they stay valid until the next Do on the
// same client, and a caller that keeps them longer copies them.
type Client interface {
	Do(ops []Op) ([]Result, error)
}

// LocalClient runs batches directly on a store, tagging transactions
// with a fixed worker id. One LocalClient per goroutine.
type LocalClient struct {
	Store  *Store
	Worker int
	R      *rng.Rand

	res []Result // the results of the last Do
}

// Do implements Client. Its results are valid until the next Do: each
// batch is written over the previous one's result slice, so a warm
// client allocates nothing per batch.
func (c *LocalClient) Do(ops []Op) ([]Result, error) {
	c.res = c.Store.ApplyBatchInto(c.res, c.Worker, c.R, ops)
	return c.res, nil
}
