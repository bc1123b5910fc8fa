package txkv

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

// TestTxkvdSmoke is the CI smoke test for the serving stack (make
// smoke-txkv): start the txkvd core behind a real HTTP listener,
// drive a fixed number of batched requests per user over the wire for
// every registered workload, then verify the store's structural
// invariants, the workload's semantic check, and a clean pool
// shutdown. Runs under -race.
func TestTxkvdSmoke(t *testing.T) {
	for _, wname := range Names() {
		t.Run(wname, func(t *testing.T) {
			w, err := ByName(wname, Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := stm.DefaultConfig()
			cfg.Lazy = true
			cfg.CommitBatch = 4 // serve through the group-commit combiner
			store := w.NewStore(Config{STM: cfg})
			sv := NewServer(store, 4, 42)
			ts := httptest.NewServer(sv)

			tot, err := drive(w, func(u int, r *rng.Rand) Client {
				return &HTTPClient{Base: ts.URL}
			}, 4, 16, 50, 99)
			if err != nil {
				t.Fatal(err)
			}

			// Quiesced: the server-side invariant endpoint and the local
			// checks must both pass.
			resp, err := http.Get(ts.URL + "/v1/check")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/v1/check returned %s", resp.Status)
			}
			if err := store.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := w.Check(store, tot); err != nil {
				t.Fatal(err)
			}

			// Clean shutdown: pool drains, then refuses work.
			ts.Close()
			sv.Close()
			if _, err := sv.Exec([]Op{{Kind: KindGet, Key: 1}}); err == nil {
				t.Fatal("Exec succeeded after Close")
			}
		})
	}
}

// TestServerEndpoints covers the non-batch surface: stats, health,
// bad requests, and the oversized-batch guard.
func TestServerEndpoints(t *testing.T) {
	w, err := ByName("readmostly", Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := w.NewStore(Config{STM: stm.DefaultConfig()})
	sv := NewServer(store, 2, 1)
	defer sv.Close()
	ts := httptest.NewServer(sv)
	defer ts.Close()

	for _, path := range []string{"/healthz", "/v1/stats", "/v1/check"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %s", path, resp.Status)
		}
	}
	// The read-only endpoints take GET only (/v1/check walks the store).
	for _, path := range []string{"/healthz", "/v1/stats", "/v1/check", "/metrics"} {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s = %s, want 405", path, resp.Status)
		}
	}
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %s, want 404", resp.Status)
	}
	// GET on the batch endpoint is rejected.
	resp, err = http.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/batch = %s, want 405", resp.Status)
	}
	// Malformed JSON is a 400.
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %s, want 400", resp.Status)
	}
	// Oversized batches are refused before allocation, with a typed
	// error; over HTTP that is a 413 (a request no retry can fix), as
	// is a body the 8 MiB read limit cuts off — announced or not.
	if _, err := sv.Exec(make([]Op, maxBatchOps+1)); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch: %v, want ErrBatchTooLarge", err)
	}
	tooMany := make([]Op, maxBatchOps+1)
	for i := range tooMany {
		tooMany[i] = Op{Kind: KindGet, Key: 1}
	}
	if _, err := (&HTTPClient{Base: ts.URL}).Do(tooMany); err == nil ||
		!strings.Contains(err.Error(), "413") || !strings.Contains(err.Error(), ErrBatchTooLarge.Error()) {
		t.Fatalf("%d-op POST: %v, want a 413 naming the limit", len(tooMany), err)
	}
	huge := bytes.Repeat([]byte(" "), maxBatchBody+1)
	copy(huge, `{"ops":[`)
	for _, body := range []io.Reader{
		bytes.NewReader(huge),                 // Content-Length says so
		io.MultiReader(bytes.NewReader(huge)), // chunked: found out by reading
	} {
		resp, err = http.Post(ts.URL+"/v1/batch", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-byte body = %s %q, want 413", len(huge), resp.Status, msg)
		}
	}
	// A body of exactly the limit is read and judged as JSON.
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(huge[:maxBatchBody]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%d-byte truncated body = %s, want 400", maxBatchBody, resp.Status)
	}
	// A closed server is the one 503.
	sv.Close()
	if _, err := sv.Exec(nil); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Exec after Close: %v, want ErrServerClosed", err)
	}
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`{"ops":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST after Close = %s, want 503", resp.Status)
	}
}

// TestPolicyEndpoint covers the control-plane surface: reading the
// live policy, partial overrides applied through SetPolicy, and strict
// rejection of malformed overrides, which must leave the policy and its
// swap count alone.
func TestPolicyEndpoint(t *testing.T) {
	getView := func(ts *httptest.Server) policyView {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/policy")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/policy = %s", resp.Status)
		}
		var v policyView
		dec := json.NewDecoder(resp.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	post := func(ts *httptest.Server, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/policy", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("static", func(t *testing.T) {
		w, err := ByName("readmostly", Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := stm.DefaultConfig()
		cfg.Lazy = true
		store := w.NewStore(Config{STM: cfg})
		sv := NewServer(store, 2, 1)
		defer sv.Close()
		ts := httptest.NewServer(sv)
		defer ts.Close()

		if v := getView(ts); v.Swaps != 0 || v.Policy != store.Runtime().Policy().String() {
			t.Fatalf("static view = %+v", v)
		}
		// Partial override applies directly to the runtime.
		resp := post(ts, `{"commitBatch":8,"strategy":"RRW"}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("override = %s", resp.Status)
		}
		p := store.Runtime().Policy()
		if p.CommitBatch != 8 || p.Strategy == nil || p.Strategy.Name() != "RRW" {
			t.Fatalf("policy after override = %s", p)
		}
		if v := getView(ts); v.Swaps != 1 || v.Policy != p.String() {
			t.Fatalf("view after override = %+v", v)
		}
		// Unknown values, unknown fields (a stale resume, the retired
		// kWindow, a snake_case typo), trailing data and a cut-off body
		// are 400s that apply nothing.
		for _, bad := range []string{
			`{"resolution":"sideways"}`,
			`{"strategy":"nope"}`,
			`{`,
			`{"resume":true}`,
			`{"kWindow":64}`,
			`{"commit_batch":4}`,
			`{"hybrid":true} {"hybrid":false}`,
			`{"hybrid":true} x`,
		} {
			resp = post(ts, bad)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s = %s, want 400", bad, resp.Status)
			}
		}
		if got := store.Runtime().PolicySwaps(); got != 1 {
			t.Fatalf("rejected overrides left %d swaps, want 1", got)
		}
		// Stats carries the control-plane fields.
		resp, err = http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, key := range []string{"policy", "kEstimate", "policySwaps", "stm", "len"} {
			if _, ok := st[key]; !ok {
				t.Fatalf("/v1/stats missing %q: %v", key, st)
			}
		}
	})
}
