package txkv

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"testing"

	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

// goldenBodies returns the checked-in /v1/batch fixture of one
// workload: the request as json.Marshal and the response as
// json.Encoder.Encode wrote them on the commit before wire.go existed
// (seeded op streams through ApplyBatch, plus edge shapes; the
// hotspot-counter pair is the one outside the canonical shape: strings
// that need escaping, a negative field count).
func goldenBodies(t testing.TB, workload string) (req, resp []byte) {
	t.Helper()
	read := func(kind string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", "batch-"+workload+"."+kind+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return read("req"), read("resp")
}

var goldenWorkloads = []string{"readmostly", "document", "hotspot-counter"}

// jsonEncodeResponse is the parent commit's writeJSON body.
func jsonEncodeResponse(t testing.TB, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(batchResponse{Results: results}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireGolden holds the codec to the fixtures: the encoders
// reproduce them byte for byte from the values encoding/json reads out
// of them, the decoders return those same values, and the fast path
// takes the canonical pairs itself and declines the third.
func TestWireGolden(t *testing.T) {
	for _, name := range goldenWorkloads {
		t.Run(name, func(t *testing.T) {
			reqBody, respBody := goldenBodies(t, name)
			canonical := name != "hotspot-counter"

			var req batchRequest
			if err := json.Unmarshal(reqBody, &req); err != nil {
				t.Fatal(err)
			}
			if got := AppendBatchRequest(nil, req.Ops); !bytes.Equal(got, reqBody) {
				t.Errorf("request encoding differs from the fixture:\n got %s\nwant %s", got, reqBody)
			}
			if _, ok := parseBatchRequest(nil, reqBody); ok != canonical {
				t.Errorf("request fast path accepted = %v, want %v", ok, canonical)
			}
			ops, err := decodeBatchRequest(nil, reqBody)
			if err != nil || !reflect.DeepEqual(ops, req.Ops) {
				t.Errorf("request decoding = %v, %v; want encoding/json's %v", ops, err, req.Ops)
			}

			var resp batchResponse
			if err := json.Unmarshal(respBody, &resp); err != nil {
				t.Fatal(err)
			}
			if got := appendBatchResponse(nil, resp.Results); !bytes.Equal(got, respBody) {
				t.Errorf("response encoding differs from the fixture:\n got %s\nwant %s", got, respBody)
			}
			if _, ok := parseBatchResponse(nil, respBody); ok != canonical {
				t.Errorf("response fast path accepted = %v, want %v", ok, canonical)
			}
			results, err := ParseBatchResponse(nil, respBody)
			if err != nil || !reflect.DeepEqual(results, resp.Results) {
				t.Errorf("response decoding = %v, %v; want encoding/json's %v", results, err, resp.Results)
			}
		})
	}
}

// TestWireEncodeMatchesJSON compares the encoders with encoding/json
// on the values a fixture cannot carry (a decoded fixture never holds
// a nil batch, or an empty non-nil slice under omitempty) and on every
// string class appendString tells apart.
func TestWireEncodeMatchesJSON(t *testing.T) {
	strs := []string{"", "get", "a b~", "q\"q", `b\s`, "<", ">", "&", "\x00", "\x1f", "\x7f",
		"é", " ", "\xff\xfe", "tab\there"}
	opsCases := [][]Op{nil, {}, {{}}, {{Kind: KindGet}, {Key: 1, Val: 2, Fields: 3}, {Fields: -1}},
		{{Kind: KindPut, Key: ^uint64(0), Val: ^uint64(0), Fields: int(^uint(0) >> 1)}}}
	resCases := [][]Result{nil, {}, {{}}, {{Vals: []uint64{}}, {Vals: []uint64{0}}, {Found: true}},
		{{Val: ^uint64(0), Vals: []uint64{1, 2}, Found: true, Err: "x"}, {Vals: []uint64{7}, Err: "y"}, {Found: true, Err: "z"}}}
	for _, s := range strs {
		opsCases = append(opsCases, []Op{{Kind: s, Key: 1}})
		resCases = append(resCases, []Result{{Err: s}})
	}
	for _, ops := range opsCases {
		want, err := json.Marshal(batchRequest{Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		// A non-empty dst must be appended to, not overwritten.
		if got := AppendBatchRequest([]byte("x"), ops); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("AppendBatchRequest(%+v) = %s, want %s", ops, got[1:], want)
		}
	}
	for _, results := range resCases {
		want := jsonEncodeResponse(t, results)
		if got := appendBatchResponse([]byte("x"), results); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("appendBatchResponse(%+v) = %s, want %s", results, got[1:], want)
		}
	}
}

// nonCanonicalRequests are bodies the request fast path must decline;
// encoding/json accepts some and rejects others, and either way its
// answer is the server's. Shared with FuzzBatchDecode's seed corpus.
var nonCanonicalRequests = []string{
	`{"ops":[{"Op":"get","key":1}]}`,                                  // case-folded key
	`{"OPS":[{"op":"get","key":1}]}`,                                  //
	`{"ops":[{"op":"get","key":1,"key":2}]}`,                          // duplicate member
	`{"ops":[],"ops":[{"op":"get","key":1}]}`,                         //
	`{"ops":[{"op":"get","key":1e3}]}`,                                // exponent
	`{"ops":[{"op":"get","key":1.0}]}`,                                // fraction
	`{"ops":[{"op":"get","key":01}]}`,                                 // leading zero
	`{"ops":[{"op":"get","key":-0}]}`,                                 // sign
	`{"ops":[{"op":"get","key":1,"fields":-1}]}`,                      //
	`{"ops":[{"op":"get","key":18446744073709551616}]}`,               // 2^64
	`{"ops":[{"op":"readdoc","key":1,"fields":9223372036854775808}]}`, // 2^63 into an int
	`{"ops":[{"op":"g\u0065t","key":1}]}`,                             // escape
	`{"ops":[{"op":get,"key":1}]}`,                                    // bare word
	`{"ops":[{"op":"gét","key":1}]}`,                                  // non-ASCII
	`{"ops":[{"op":"frob","key":1}]}`,                                 // unknown kind
	`{"ops":[{"op":"get","key":1,"ttl":5}]}`,                          // unknown member
	`{"ops":[{"op":"get","key":"1"}]}`,                                // wrong type
	`{"ops":[{"op":"get","key":null}]}`,                               //
	`{"ops":[null]}`,                                                  //
	`{"ops":null}`,                                                    // null batch
	`{}`,                                                              // absent batch
	`{"ops":[],"more":1}`,                                             // unknown top-level member
	`{"ops":[{"op":"get","key":1},]}`,                                 // trailing comma
	`{"ops":[{"op":"get","key":1,}]}`,                                 //
	`{"ops":[{"op":"get" "key":1}]}`,                                  // missing comma
	`{"ops":[{"op":"get","key":1}{"op":"get"}]}`,                      //
	`{"ops":[{"op":"get","key":1}]} x`,                                // trailing data
	`{"ops":[{"op":"get","key":1}]}{"ops":[]}`,                        //
	`{"ops":[{"op":"get","key":1}]`,                                   // truncated
	`{"ops":[{"op":"get","key":`,                                      //
	`{"ops":[{"op":"ge`,                                               //
	`[{"op":"get","key":1}]`,                                          // not an object
	"\ufeff" + `{"ops":[]}`,                                           // byte-order mark
	``,
}

// canonicalRequests are bodies the fast path must take itself.
var canonicalRequests = []string{
	`{"ops":[]}`,
	`{"ops":[{}]}`,
	`{"ops":[{"op":"get","key":1}]}`,
	`{"ops":[{"key":1,"op":"del"},{"fields":8,"val":0,"key":0,"op":"updatedoc"}]}`,
	" {\n\t\"ops\" : [ { \"op\" : \"add\" , \"key\" : 18446744073709551615 , \"val\" : 10 } ] }\r\n ",
	// The largest field count the fast path takes; executed, it used to
	// panic the goroutine running the batch in make() (Store.checkDoc
	// now refuses it).
	`{"ops":[{"op":"readdoc","key":1,"fields":9223372036854775807}]}`,
}

// jsonDecodeRequest is the parent commit's handleBatch decode.
func jsonDecodeRequest(body []byte) ([]Op, error) {
	var req batchRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Ops, err
}

// TestWireDecodeDeclines pins the decline rule on the request side:
// a non-canonical body is never the fast path's, and whichever path
// answers, value and error text are the json.Decoder's.
func TestWireDecodeDeclines(t *testing.T) {
	for _, body := range nonCanonicalRequests {
		if ops, ok := parseBatchRequest(nil, []byte(body)); ok {
			t.Errorf("fast path accepted %q as %+v", body, ops)
		}
	}
	for _, body := range canonicalRequests {
		if _, ok := parseBatchRequest(nil, []byte(body)); !ok {
			t.Errorf("fast path declined %q", body)
		}
	}
	for _, body := range append(append([]string{}, nonCanonicalRequests...), canonicalRequests...) {
		want, wantErr := jsonDecodeRequest([]byte(body))
		got, err := decodeBatchRequest(nil, []byte(body))
		if !sameError(err, wantErr) {
			t.Errorf("decode %q: error %v, want %v", body, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decode %q = %+v, want %+v", body, got, want)
		}
	}
	// One op past the limit is encoding/json's to count.
	big := AppendBatchRequest(nil, make([]Op, maxBatchOps+1))
	if _, ok := parseBatchRequest(nil, big); ok {
		t.Errorf("fast path accepted %d ops", maxBatchOps+1)
	}
	if _, ok := parseBatchRequest(nil, AppendBatchRequest(nil, make([]Op, maxBatchOps))); ok {
		t.Errorf("fast path accepted %d ops with an empty kind", maxBatchOps)
	}
	full := make([]Op, maxBatchOps)
	for i := range full {
		full[i] = Op{Kind: KindGet, Key: uint64(i)}
	}
	if ops, ok := parseBatchRequest(nil, AppendBatchRequest(nil, full)); !ok || !reflect.DeepEqual(ops, full) {
		t.Errorf("fast path declined a full %d-op batch", maxBatchOps)
	}
}

// TestWireDecodeReusesDst checks the scratch contract: a canonical
// body decodes into dst's memory and every element is written whole,
// whatever the memory held.
func TestWireDecodeReusesDst(t *testing.T) {
	dst := []Op{{Kind: "stale", Key: 9, Val: 9, Fields: 9}, {Kind: "stale", Key: 9, Val: 9, Fields: 9}}
	ops, ok := parseBatchRequest(dst, []byte(`{"ops":[{"op":"get","key":1},{"op":"del","key":2}]}`))
	want := []Op{{Kind: KindGet, Key: 1}, {Kind: KindDelete, Key: 2}}
	if !ok || !reflect.DeepEqual(ops, want) || &ops[0] != &dst[0] {
		t.Fatalf("parseBatchRequest into dst = %+v, %v (same memory %v)", ops, ok, &ops[0] == &dst[0])
	}
	stale := []Result{{Val: 9, Vals: []uint64{9}, Found: true, Err: "stale"}}
	results, ok := parseBatchResponse(stale, []byte(`{"results":[{}]}`))
	if !ok || !reflect.DeepEqual(results, []Result{{}}) || &results[0] != &stale[0] {
		t.Fatalf("parseBatchResponse into dst = %+v, %v", results, ok)
	}
}

// readmostlyBatch draws one 16-op readmostly request, the
// sock-read-b16 shape.
func readmostlyBatch(t testing.TB) (*Workload, []Op) {
	t.Helper()
	w, err := ByName("readmostly", Options{})
	if err != nil {
		t.Fatal(err)
	}
	usr, r := w.NewUser(0), rng.New(5)
	ops := make([]Op, 16)
	for i := range ops {
		ops[i] = usr.Next(r)
	}
	return w, ops
}

// replayBody is a request body a test can rewind.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// TestBatchCodecAllocs holds the codec's allocation cost by test, not
// only by the benchmark ledger. Server side: one 16-op readmostly
// request through ServeHTTP on a reused recorder measured 39 objects
// through encoding/json and measures 0 now; the pin leaves room for a
// sync.Pool miss after a collection. Client side: encoding the request
// and decoding the response into the result slice the client keeps
// measured 19 and now cost nothing (Do adds the bytes.Reader it hands
// to net/http).
func TestBatchCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	w, ops := readmostlyBatch(t)
	sv := NewServer(w.NewStore(Config{STM: stm.DefaultConfig()}), 2, 1)
	defer sv.Close()

	body := AppendBatchRequest(nil, ops)
	rb := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
	req.Body, req.ContentLength = rb, int64(len(body))
	rec := httptest.NewRecorder()
	serve := func() {
		rb.Reset(body)
		rec.Body.Reset()
		sv.ServeHTTP(rec, req)
	}
	serve()
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/batch = %d: %s", rec.Code, rec.Body)
	}
	respBody := append([]byte(nil), rec.Body.Bytes()...)

	const serveMax = 2
	if got := testing.AllocsPerRun(200, serve); got > serveMax {
		t.Errorf("ServeHTTP allocates %.1f objects per 16-op batch, want <= %d", got, serveMax)
	}
	// net/http hands every request a fresh cancellable context, whose
	// Done allocates its channel on the first call; a free token must
	// not ask for it. The contexts are made before counting, and with
	// the GC off a sync.Pool miss can neither hide nor fake an
	// allocation, so the count is exact.
	const runs = 200
	reqs := make([]*http.Request, runs+1) // AllocsPerRun's warm-up call, then runs
	for i := range reqs {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		reqs[i] = req.WithContext(ctx)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		req = reqs[next]
		next++
		serve()
	}); got != 0 {
		t.Errorf("ServeHTTP with a cancellable context allocates %.1f objects per 16-op batch, want 0", got)
	}

	var out []byte
	var results []Result
	got := testing.AllocsPerRun(200, func() {
		var err error
		out = AppendBatchRequest(out[:0], ops)
		results, err = ParseBatchResponse(results[:0], respBody)
		if err != nil || len(results) != len(ops) {
			t.Fatalf("ParseBatchResponse = %d results, %v", len(results), err)
		}
	})
	if got != 0 {
		t.Errorf("request encode + response decode into a kept slice allocate %.1f objects, want 0", got)
	}
}

// TestLocalClientAllocs: LocalClient.Do writes each batch over the
// result slice it kept from the last one, so on a warm store a batch
// of the in-process workloads' shapes — read-mostly, and hot counters
// that relink their index class — allocates nothing.
func TestLocalClientAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	for _, name := range []string{"readmostly", "hotspot-counter"} {
		t.Run(name, func(t *testing.T) {
			w, err := ByName(name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			usr, r := w.NewUser(0), rng.New(5)
			ops := make([]Op, 16)
			for i := range ops {
				ops[i] = usr.Next(r)
			}
			c := &LocalClient{Store: w.NewStore(Config{STM: stm.DefaultConfig()}), R: rng.New(1)}
			do := func() {
				res, err := c.Do(ops)
				if err != nil || len(res) != len(ops) {
					t.Fatalf("Do = %d results, %v", len(res), err)
				}
				for i := range res {
					if res[i].Err != "" {
						t.Fatalf("op %+v: %s", ops[i], res[i].Err)
					}
				}
			}
			do()
			if got := testing.AllocsPerRun(200, do); got != 0 {
				t.Errorf("LocalClient.Do allocates %.1f objects per 16-op batch, want 0", got)
			}
		})
	}
}

// TestBatchOverHTTPMatchesJSON sends canonical, non-canonical and
// malformed bodies through a live listener and checks each answer is
// the one the encoding/json handler gave: status, and body text byte
// for byte.
func TestBatchOverHTTPMatchesJSON(t *testing.T) {
	w, _ := readmostlyBatch(t)
	newServer := func() (*Server, *httptest.Server) {
		sv := NewServer(w.NewStore(Config{STM: stm.DefaultConfig()}), 2, 1)
		return sv, httptest.NewServer(sv)
	}
	sv, ts := newServer()
	defer sv.Close()
	defer ts.Close()
	// The reference applies the same bodies, in the same order, to a
	// second store through ApplyBatch and encoding/json.
	ref := w.NewStore(Config{STM: stm.DefaultConfig()})
	refRand := rng.New(1)

	reqBody, _ := goldenBodies(t, "readmostly")
	exotic, _ := goldenBodies(t, "hotspot-counter")
	bodies := append([]string{string(reqBody), string(exotic)}, canonicalRequests...)
	bodies = append(bodies, nonCanonicalRequests...)
	for _, body := range bodies {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		wantStatus := http.StatusOK
		var want []byte
		if ops, err := jsonDecodeRequest([]byte(body)); err != nil {
			wantStatus, want = http.StatusBadRequest, []byte("bad batch: "+err.Error()+"\n")
		} else {
			want = jsonEncodeResponse(t, ref.ApplyBatch(0, refRand, ops))
		}
		if resp.StatusCode != wantStatus || !bytes.Equal(got, want) {
			t.Errorf("POST %q = %d %q, want %d %q", body, resp.StatusCode, got, wantStatus, want)
		}
		if wantStatus == http.StatusOK && resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("POST %q: Content-Type %q", body, resp.Header.Get("Content-Type"))
		}
	}
}
