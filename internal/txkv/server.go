package txkv

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"

	"txconflict/internal/core"
	"txconflict/internal/metrics"
	"txconflict/internal/rng"
	"txconflict/internal/strategy"
)

// maxBatchOps bounds one request's batch so a single POST cannot
// preallocate unbounded result buffers (the same hardening the trace
// loader got after fuzzing); maxBatchBody bounds the bytes read to
// find that out.
const (
	maxBatchOps  = 4096
	maxBatchBody = 8 << 20
)

// Exec's failures, typed so a front-end can tell a request that will
// never succeed (413) from a server going away (503).
var (
	ErrBatchTooLarge = errors.New("txkv: batch too large")
	ErrServerClosed  = errors.New("txkv: server closed")
)

// Server is the txkvd serving core: an http.Handler that executes
// each batch request on the request's own goroutine under one of a
// fixed set of worker tokens. A token is an stm worker identity (id
// and random stream), so at most workers batches run at once, each
// under an identity no other running batch holds — per-worker trace
// buffers stay contention-free and conflict stats attribute cleanly.
// cmd/txkvd wraps it in an http.Server; tests drive it through
// httptest.
type Server struct {
	store *Store

	tokens chan token
	quit   chan struct{}
	closed atomic.Bool
}

// token is one worker identity; exactly one running batch holds it.
type token struct {
	id int
	r  *rng.Rand
}

// NewServer fills workers tokens for the store.
func NewServer(store *Store, workers int, seed uint64) *Server {
	if workers <= 0 {
		workers = 4
	}
	sv := &Server{
		store:  store,
		tokens: make(chan token, workers),
		quit:   make(chan struct{}),
	}
	root := rng.New(seed)
	for w := 0; w < workers; w++ {
		sv.tokens <- token{id: w, r: root.Split()}
	}
	return sv
}

// Close refuses new batches and returns once every running batch has
// given its token back. In-flight requests racing Close may fail with
// ErrServerClosed; callers should stop traffic first.
func (sv *Server) Close() {
	if sv.closed.CompareAndSwap(false, true) {
		close(sv.quit)
		for i := 0; i < cap(sv.tokens); i++ {
			<-sv.tokens
		}
	}
}

// Exec runs one batch under a worker token and returns its results.
// It fails with ErrBatchTooLarge above maxBatchOps ops and with
// ErrServerClosed once Close has begun.
func (sv *Server) Exec(ops []Op) ([]Result, error) {
	return sv.exec(context.Background(), ops, nil)
}

// exec is Exec into the caller's result memory (see
// Store.ApplyBatchInto). It waits for a token only while ctx is live
// and the server open; then it fails with ErrServerClosed or ctx's
// error, and the batch has not run.
func (sv *Server) exec(ctx context.Context, ops []Op, dst []Result) ([]Result, error) {
	if len(ops) > maxBatchOps {
		return nil, fmt.Errorf("%w: %d ops exceed the %d-op limit", ErrBatchTooLarge, len(ops), maxBatchOps)
	}
	if sv.closed.Load() {
		return nil, ErrServerClosed
	}
	var t token
	// A free token skips ctx.Done(), which allocates its channel on a
	// net/http request's first call.
	select {
	case t = <-sv.tokens:
	default:
		select {
		case t = <-sv.tokens:
		case <-sv.quit:
			return nil, ErrServerClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer func() { sv.tokens <- t }()
	return sv.store.ApplyBatchInto(dst, t.id, t.r, ops), nil
}

// ServeHTTP implements the front-end API:
//
//	POST /v1/batch   {"ops":[{"op":"put","key":1,"val":2},...]}
//	GET  /v1/stats   committed size, policy, and one snapshot of the
//	                 runtime's metrics plane: event counters, latency
//	                 quantiles, abort taxonomy
//	GET  /v1/policy  current policy, swap count and k estimate
//	POST /v1/policy  partial policy override, applied via SetPolicy
//	GET  /v1/check   structural invariants (quiescent stores only)
//	GET  /metrics    Prometheus text exposition (histogram summaries,
//	                 abort taxonomy, commit-phase timers, stm counters)
//	GET  /healthz    liveness
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/stats", "/v1/check", "/metrics", "/healthz":
		// Read-only, and /v1/check walks the whole store: not for a
		// stray POST to reach.
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
	}
	switch r.URL.Path {
	case "/v1/batch":
		sv.handleBatch(w, r)
	case "/v1/stats":
		rt := sv.store.Runtime()
		snap := rt.Metrics().Snapshot()
		writeJSON(w, map[string]any{
			"len":          sv.store.Len(),
			"stm":          snap.Counts(),
			"config":       rt.Config().String(),
			"policy":       rt.Policy().String(),
			"kEstimate":    rt.KEstimate(),
			"policySwaps":  rt.PolicySwaps(),
			"latency":      snap.LatencySummaries(),
			"abortReasons": snap.AbortCounts(),
		})
	case "/metrics":
		sv.handleMetrics(w)
	case "/v1/policy":
		sv.handlePolicy(w, r)
	case "/v1/check":
		if err := sv.store.CheckInvariants(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "ok")
	case "/healthz":
		fmt.Fprintln(w, "ok")
	default:
		http.NotFound(w, r)
	}
}

// handleMetrics renders the Prometheus text exposition from one
// snapshot of the runtime's metrics plane — summaries, taxonomy and
// phase timers, then the stm.Stats counters — plus store-level
// gauges. Families are emitted in a fixed order so successive scrapes
// diff cleanly.
func (sv *Server) handleMetrics(w http.ResponseWriter) {
	rt := sv.store.Runtime()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	snap := rt.Metrics().Snapshot()
	if err := snap.WriteProm(&buf, "txstm"); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Every Stats counter rides along under its snake_case name.
	stats := snap.Counts()
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := "txstm_" + metrics.SnakeCase(k) + "_total"
		if err := metrics.CounterProm(&buf, name, "counter",
			"stm.Stats."+k+" runtime counter.", stats[k]); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	pw := metrics.NewPromWriter(&buf)
	pw.Family("txkv_store_keys", "gauge", "Committed key count of the served store.")
	pw.Uint("txkv_store_keys", nil, uint64(sv.store.Len()))
	pw.Family("txstm_policy_swaps_total", "counter", "SetPolicy applications on the served runtime.")
	pw.Uint("txstm_policy_swaps_total", nil, rt.PolicySwaps())
	pw.Family("txstm_k_estimate", "gauge", "Mean conflict chain length k over grace waits.")
	pw.Sample("txstm_k_estimate", nil, rt.KEstimate())
	if err := pw.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(buf.Bytes())
}

func (sv *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	sc := getScratch()
	if status, msg := sv.runBatch(sc, r); status != http.StatusOK {
		// The scratch goes with the failed request instead of back to
		// the pool: a refused batch's ops may be far past the limit.
		http.Error(w, msg, status)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.Write(sc.out)
	putScratch(sc)
}

// runBatch reads, decodes and executes one request out of sc and
// leaves the encoded response in sc.out; any other status comes with
// its error text.
func (sv *Server) runBatch(sc *batchScratch, r *http.Request) (status int, msg string) {
	const tooLarge = "bad batch: body exceeds the 8 MiB limit"
	if r.ContentLength > maxBatchBody {
		return http.StatusRequestEntityTooLarge, tooLarge
	}
	// One byte past the limit tells a cut-off body from one that fits.
	sc.lr = io.LimitedReader{R: r.Body, N: maxBatchBody + 1}
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(&sc.lr); err != nil {
		return http.StatusBadRequest, "bad batch: " + err.Error()
	}
	if sc.body.Len() > maxBatchBody {
		return http.StatusRequestEntityTooLarge, tooLarge
	}
	ops, err := decodeBatchRequest(sc.ops, sc.body.Bytes())
	if err != nil {
		return http.StatusBadRequest, "bad batch: " + err.Error()
	}
	results, err := sv.exec(r.Context(), ops, sc.res)
	switch {
	case errors.Is(err, ErrBatchTooLarge):
		return http.StatusRequestEntityTooLarge, err.Error()
	case err != nil:
		return http.StatusServiceUnavailable, err.Error()
	}
	sc.ops, sc.res = ops, results
	sc.out = appendBatchResponse(sc.out[:0], results)
	return http.StatusOK, ""
}

// jsonContentType is shared by every /v1/batch response; net/http
// reads a header's value slice and never writes to it.
var jsonContentType = []string{"application/json"}

// policyRequest is the POST /v1/policy wire format. Every field is
// optional; absent fields keep their current value, so a request can
// flip one knob without restating the rest. An unknown field is an
// error, not a no-op.
type policyRequest struct {
	Resolution  *string `json:"resolution"` // core.ParsePolicy: "rw" | "ra"
	Hybrid      *bool   `json:"hybrid"`
	Strategy    *string `json:"strategy"` // registry name; "" = NO_DELAY
	CommitBatch *int    `json:"commitBatch"`
	MaxRetries  *int    `json:"maxRetries"`
	// FoldCommutative flips the combiner's commutative-delta folding
	// (effective on the batched lazy path; see stm.Policy).
	FoldCommutative *bool `json:"foldCommutative"`
}

// policyView is the GET /v1/policy body: the live policy, the
// runtime's SetPolicy count and its mean conflict-chain length.
type policyView struct {
	Policy    string  `json:"policy"`
	Swaps     uint64  `json:"swaps"`
	KEstimate float64 `json:"kEstimate"`
}

func (sv *Server) policyView() policyView {
	rt := sv.store.Runtime()
	return policyView{
		Policy:    rt.Policy().String(),
		Swaps:     rt.PolicySwaps(),
		KEstimate: rt.KEstimate(),
	}
}

func (sv *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	rt := sv.store.Runtime()
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, sv.policyView())
	case http.MethodPost:
		var req policyRequest
		dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(w, "bad policy: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := dec.Decode(&struct{}{}); err != io.EOF {
			http.Error(w, "bad policy: data after the JSON object", http.StatusBadRequest)
			return
		}
		p := rt.Policy()
		if req.Resolution != nil {
			pol, err := core.ParsePolicy(*req.Resolution)
			if err != nil {
				http.Error(w, "bad policy: "+err.Error(), http.StatusBadRequest)
				return
			}
			p.Policy = pol
		}
		if req.Hybrid != nil {
			p.Hybrid = *req.Hybrid
		}
		if req.Strategy != nil {
			if *req.Strategy == "" {
				p.Strategy = nil
			} else {
				s, err := strategy.ByName(*req.Strategy)
				if err != nil {
					http.Error(w, "bad policy: "+err.Error(), http.StatusBadRequest)
					return
				}
				p.Strategy = s
			}
		}
		if req.CommitBatch != nil {
			p.CommitBatch = *req.CommitBatch
		}
		if req.MaxRetries != nil {
			p.MaxRetries = *req.MaxRetries
		}
		if req.FoldCommutative != nil {
			p.FoldCommutative = *req.FoldCommutative
		}
		rt.SetPolicy(p)
		writeJSON(w, sv.policyView())
	default:
		http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// HTTPClient drives a txkvd server over the batch endpoint; it
// implements Client, so code written against Client runs unchanged
// against a remote store. One HTTPClient per goroutine.
type HTTPClient struct {
	// Base is the server root, e.g. "http://127.0.0.1:7070".
	Base string
	// C is the underlying HTTP client (nil = http.DefaultClient).
	C *http.Client

	res []Result // the results of the last Do
}

// Do implements Client. Its results are valid until the next Do: each
// response is decoded over the previous one's result slice.
func (h *HTTPClient) Do(ops []Op) ([]Result, error) {
	c := h.C
	if c == nil {
		c = http.DefaultClient
	}
	// The scratch is recycled only after a decoded 200: the server
	// answers 200 once it has read the whole request, so the transport
	// is then done with sc.out. On any other path it may still be
	// writing the body after Post returns, and the scratch is dropped.
	sc := getScratch()
	sc.out = AppendBatchRequest(sc.out[:0], ops)
	resp, err := c.Post(h.Base+"/v1/batch", "application/json", bytes.NewReader(sc.out))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("txkv: server returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	results, err := ParseBatchResponse(h.res[:0], sc.body.Bytes())
	if err != nil {
		return nil, err
	}
	h.res = results
	putScratch(sc)
	return results, nil
}
