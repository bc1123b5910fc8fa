package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
	"txconflict/internal/stm"
	"txconflict/internal/txkv"
)

// The inner rungs of the ladder cannot be wrapped from outside a
// live request, so the traced run replays the identical rings at each
// public entry point on a fresh store of the same configuration and
// derives each layer's self time by subtraction.

// wireReq and wireResp are the /v1/batch bodies, as txkv.HTTPClient
// and txkv.Server exchange them.
type wireReq struct {
	Ops []txkv.Op `json:"ops"`
}

type wireResp struct {
	Results []txkv.Result `json:"results"`
}

// replayWarm is how many calls per user a replay discards first.
const replayWarm = 200

// replay calls fn(u, i) for ring slot i of user u, from one goroutine
// per user, for d; fn returns the time of the call under test. The
// result is the median call in microseconds.
func replay(rings [][][]txkv.Op, d time.Duration, fn func(u, i int) (time.Duration, error)) (float64, error) {
	lats := make([][]uint32, len(rings))
	errs := make([]error, len(rings))
	var wg sync.WaitGroup
	for u := range rings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var deadline time.Time
			for n := 0; ; n++ {
				if n == replayWarm {
					deadline = time.Now().Add(d)
				}
				dt, err := fn(u, n%len(rings[u]))
				if err != nil {
					errs[u] = err
					return
				}
				if n >= replayWarm {
					lats[u] = append(lats[u], uint32(dt))
					if time.Now().After(deadline) {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	var all []uint32
	for _, l := range lats {
		all = append(all, l...)
	}
	return summarize(all).p50, errors.Join(errs...)
}

// rungs is the replayed part of the ladder, medians in microseconds.
// Replays run from one goroutine per user, as the live run does, so
// each rung carries the conflicts the users cause each other.
type rungs struct {
	apply     float64 // Store.ApplyBatch (local workloads)
	exec      float64 // Server.Exec
	serveHTTP float64 // Server.ServeHTTP in memory
	codec     float64 // client-side JSON: marshal request + decode response
	// handoff is Exec minus ApplyBatch, each replayed from a single
	// goroutine: the pool hand-off alone. It has to be a difference of
	// conflict-free replays, because two users calling ApplyBatch
	// directly collide far more often than the same users queued
	// behind the pool, and that gap would swamp a few microseconds.
	handoff float64
}

// replayRungs replays the rings of sp at each entry point. Local
// workloads have only the apply rung.
func replayRungs(sp spec, seed uint64, d time.Duration) (out rungs, err error) {
	w, err := txkv.ByName(sp.kv, txkv.Options{})
	if err != nil {
		return out, err
	}
	_, rings, _ := buildRings(w, sp, seed)
	fresh := func() *txkv.Store { return sp.newStore(w) }
	rs := sp.clientRands(seed)
	applyOn := func(rings [][][]txkv.Op, d time.Duration) float64 {
		store := fresh()
		p50, _ := replay(rings, d, func(u, i int) (time.Duration, error) {
			t0 := time.Now()
			store.ApplyBatch(u, rs[u], rings[u][i])
			return time.Since(t0), nil
		})
		return p50
	}
	if sp.kind != kindSock {
		out.apply = applyOn(rings, d)
		return out, nil
	}
	execOn := func(rings [][][]txkv.Op, d time.Duration) (float64, error) {
		sv := txkv.NewServer(fresh(), poolWorkers, seed)
		defer sv.Close()
		return replay(rings, d, func(u, i int) (time.Duration, error) {
			t0 := time.Now()
			_, err := sv.Exec(rings[u][i])
			return time.Since(t0), err
		})
	}

	// Bodies are marshalled ahead; the recorder and request are built
	// outside the timer, so the rung is ServeHTTP alone. Each call
	// leaves its response behind for the codec rung.
	bodies := make([][][]byte, len(rings))
	resps := make([][][]byte, len(rings))
	for u, ring := range rings {
		bodies[u] = make([][]byte, len(ring))
		resps[u] = make([][]byte, len(ring))
		for i, ops := range ring {
			if bodies[u][i], err = json.Marshal(wireReq{Ops: ops}); err != nil {
				return out, err
			}
		}
	}
	serveOn := func(d time.Duration) (float64, error) {
		sv := txkv.NewServer(fresh(), poolWorkers, seed)
		defer sv.Close()
		return replay(rings, d, func(u, i int) (time.Duration, error) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(bodies[u][i]))
			t0 := time.Now()
			sv.ServeHTTP(rec, req)
			dt := time.Since(t0)
			if rec.Code != http.StatusOK {
				return dt, fmt.Errorf("replayed /v1/batch returned %d: %s", rec.Code, rec.Body)
			}
			resps[u][i] = rec.Body.Bytes()
			return dt, nil
		})
	}

	// Alternating rounds, so a slow half-second on the host (or a
	// replay that happens to convoy) does not land on one side of a
	// subtraction only.
	const rounds = 2
	for round := 0; round < rounds; round++ {
		exec, err := execOn(rings, d/rounds)
		if err != nil {
			return out, err
		}
		serve, err := serveOn(d / rounds)
		if err != nil {
			return out, err
		}
		exec1, err := execOn(rings[:1], d/rounds)
		if err != nil {
			return out, err
		}
		out.exec += exec / rounds
		out.serveHTTP += serve / rounds
		out.handoff += (exec1 - applyOn(rings[:1], d/rounds)) / rounds
	}

	// The codec rung walks the slots the ServeHTTP rounds answered.
	filled := make([][]int, len(rings))
	for u := range resps {
		for i, b := range resps[u] {
			if b != nil {
				filled[u] = append(filled[u], i)
			}
		}
	}
	out.codec, err = replay(rings, d, func(u, n int) (time.Duration, error) {
		i := filled[u][n%len(filled[u])]
		t0 := time.Now()
		_, err := json.Marshal(wireReq{Ops: rings[u][i]})
		var br wireResp
		if err == nil {
			err = json.NewDecoder(bytes.NewReader(resps[u][i])).Decode(&br)
		}
		return time.Since(t0), err
	})
	return out, err
}

// atomicMicro prices the fixed cost of one transaction on a private
// runtime of cfg's shape: an empty closure through AtomicWorker, and
// one Load+Store on a word nothing else touches. Nanoseconds per call:
// the median over batches of calls, each probe running for d.
func atomicMicro(cfg stm.Config, d time.Duration) (emptyNs, rw1Ns float64) {
	cfg.Metrics = metrics.NewPlane(1, 0)
	rt := stm.New(64, cfg)
	r := rng.New(1)
	const calls = 10_000
	timeIt := func(fn func(tx *stm.Tx) error) float64 {
		var per []float64
		for start := time.Now(); len(per) < 3 || time.Since(start) < d; {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				// A closure that returns nil cannot fail the block.
				_ = rt.AtomicWorker(0, r, fn)
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/calls)
		}
		return median(per)
	}
	emptyNs = timeIt(func(*stm.Tx) error { return nil })
	rw1Ns = timeIt(func(tx *stm.Tx) error {
		tx.Store(7, tx.Load(7)+1)
		return nil
	})
	return emptyNs, rw1Ns
}
