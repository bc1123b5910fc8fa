package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"txconflict/internal/txkv"
)

// kvUser is one closed-loop caller: it sends the next request of its
// ring only after the previous reply was validated.
type kvUser struct {
	u      *txkv.User
	ring   [][]txkv.Op
	client txkv.Client
	hook   *spanTransport // traced sock runs only

	issued int      // requests sent so far; the ring index is issued % len
	lat    []uint32 // ns per request of the current segment

	attempted, failed, opErrs, adds uint64
	firstErr                        error
}

// kvStack is one built instance of a kv workload: store, rings and,
// on sock workloads, the server behind a real loopback listener,
// wired as cmd/txkvd's serve does.
type kvStack struct {
	w     *txkv.Workload
	store *txkv.Store
	users []*kvUser
	fp    uint64
	lat   []uint32 // every user's latencies of the last segment, merged

	sv       *txkv.Server
	hs       *http.Server
	served   chan error
	tr       *http.Transport
	connsNew atomic.Int64
	handler  *tracedHandler
}

// newKVStack is the set-up a run pays before its first timed segment:
// store, server, op rings, and warmup requests through the full path.
// A non-nil tracer wraps the server's handler and stamps span ids on
// the wire.
func newKVStack(sp spec, seed uint64, warmup int, tr *tracer) (*kvStack, error) {
	w, err := txkv.ByName(sp.kv, txkv.Options{})
	if err != nil {
		return nil, err
	}
	k := &kvStack{w: w}
	k.store = sp.newStore(w)
	users, rings, fp := buildRings(w, sp, seed)
	k.fp = fp
	base := ""
	if sp.kind == kindSock {
		k.sv = txkv.NewServer(k.store, poolWorkers, seed)
		var h http.Handler = k.sv
		if tr != nil {
			k.handler = &tracedHandler{next: k.sv, tr: tr}
			h = k.handler
		}
		mux := http.NewServeMux()
		mux.Handle("/", h)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			k.sv.Close()
			return nil, err
		}
		k.hs = &http.Server{Handler: mux, ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				k.connsNew.Add(1)
			}
		}}
		k.served = make(chan error, 1)
		go func() { k.served <- k.hs.Serve(ln) }()
		k.tr = &http.Transport{MaxIdleConnsPerHost: sp.users}
		base = "http://" + ln.Addr().String()
	}
	rs := sp.clientRands(seed)
	for u := range users {
		us := &kvUser{u: users[u], ring: rings[u], lat: make([]uint32, 0, 1<<18)}
		if sp.kind == kindSock {
			var rt http.RoundTripper = k.tr
			if tr != nil {
				us.hook = &spanTransport{base: k.tr}
				rt = us.hook
			}
			us.client = &txkv.HTTPClient{Base: base, C: &http.Client{Transport: rt}}
		} else {
			us.client = &txkv.LocalClient{Store: k.store, Worker: u, R: rs[u]}
		}
		k.users = append(k.users, us)
	}
	if warmup > 0 {
		k.run(nil, 0, max(warmup/sp.users, 1))
	}
	if tr != nil {
		tr.reset()
	}
	if k.handler != nil {
		k.handler.reset()
	}
	return k, nil
}

// run drives every user until the deadline d from now, or for exactly
// reqs requests each when reqs > 0.
func (k *kvStack) run(tr *tracer, d time.Duration, reqs int) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, us := range k.users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			us.run(tr, deadline, reqs)
		}()
	}
	wg.Wait()
}

func (us *kvUser) run(tr *tracer, deadline time.Time, reqs int) {
	us.lat = us.lat[:0]
	for n := 0; reqs == 0 || n < reqs; n++ {
		ops := us.ring[us.issued%len(us.ring)]
		us.issued++
		id := tr.begin()
		if us.hook != nil {
			us.hook.cur = id
		}
		t0 := time.Now()
		res, err := us.client.Do(ops)
		t1 := time.Now()
		tr.end(id, 0, "client.do", t0, t1)
		us.lat = append(us.lat, uint32(t1.Sub(t0)))
		// Validation sits between requests: in the host-time
		// throughput, outside the request latency.
		us.observe(ops, res, err)
		if reqs == 0 && !t1.Before(deadline) {
			return
		}
	}
}

// observe is the per-response correctness gate: transport errors,
// user-level op errors and the workload's own isolation check all
// count as failed ops.
func (us *kvUser) observe(ops []txkv.Op, res []txkv.Result, err error) {
	us.attempted += uint64(len(ops))
	if err == nil && len(res) != len(ops) {
		err = fmt.Errorf("%d results for %d ops", len(res), len(ops))
	}
	if err != nil {
		us.fail(uint64(len(ops)), err)
		return
	}
	for i, r := range res {
		var bad error
		if r.Err != "" {
			us.opErrs++
			bad = fmt.Errorf("%s key %d: %s", ops[i].Kind, ops[i].Key, r.Err)
		} else if us.u.Observe != nil {
			bad = us.u.Observe(ops[i], r)
		}
		if bad != nil {
			us.fail(1, bad)
		} else if ops[i].Kind == txkv.KindAdd {
			us.adds += ops[i].Val
		}
	}
}

func (us *kvUser) fail(n uint64, err error) {
	us.failed += n
	if us.firstErr == nil {
		us.firstErr = err
	}
}

// segment is one timed slice of a run.
type segment struct {
	lat     latSummary
	ops     uint64 // verified ops (sim: simulated commits)
	secs    float64
	mallocs uint64
}

func (k *kvStack) totals() (attempted, failed, opErrs, adds uint64) {
	for _, us := range k.users {
		attempted += us.attempted
		failed += us.failed
		opErrs += us.opErrs
		adds += us.adds
	}
	return
}

func (k *kvStack) segment(tr *tracer, d time.Duration) segment {
	a0, f0, _, _ := k.totals()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	k.run(tr, d, 0)
	secs := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	a1, f1, _, _ := k.totals()
	k.lat = k.lat[:0]
	for _, us := range k.users {
		k.lat = append(k.lat, us.lat...)
	}
	return segment{
		lat:     summarize(k.lat),
		ops:     (a1 - a0) - (f1 - f0),
		secs:    secs,
		mallocs: m1.Mallocs - m0.Mallocs,
	}
}

// close stops the stack and runs the closing half of the correctness
// gate on the quiescent store: structural invariants, then the
// workload's semantic check against what the users saw applied.
func (k *kvStack) close() error {
	var errs []error
	if k.hs != nil {
		k.tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, k.hs.Shutdown(ctx))
		cancel()
		if err := <-k.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		k.sv.Close()
	}
	for _, us := range k.users {
		errs = append(errs, us.firstErr)
	}
	_, _, _, adds := k.totals()
	errs = append(errs, k.store.CheckInvariants(), k.w.Check(k.store, txkv.Totals{Adds: adds}))
	return errors.Join(errs...)
}

// opMix counts the ops of each kind the users issued between request
// indices from[u] and their current position, from the rings alone.
func (k *kvStack) opMix(from []int) map[string]uint64 {
	mix := map[string]uint64{}
	for u, us := range k.users {
		n := us.issued - from[u]
		passes, rem := uint64(n/len(us.ring)), n%len(us.ring)
		for i, req := range us.ring {
			// Ring slot i ran once per full pass, once more if it lies
			// in the partial pass that starts at from[u].
			times := passes
			if (i-from[u]%len(us.ring)+len(us.ring))%len(us.ring) < rem {
				times++
			}
			for _, op := range req {
				mix[op.Kind] += times
			}
		}
	}
	return mix
}

func (k *kvStack) issued() []int {
	out := make([]int, len(k.users))
	for u, us := range k.users {
		out[u] = us.issued
	}
	return out
}
