package txkv

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

// nonCanonicalResponses are bodies the response fast path must
// decline, the counterpart of nonCanonicalRequests.
var nonCanonicalResponses = []string{
	`{"results":[{"Val":1}]}`,
	`{"results":[{"val":1,"val":2}]}`,
	`{"results":[{"val":1e3}]}`,
	`{"results":[{"val":01}]}`,
	`{"results":[{"val":-0}]}`,
	`{"results":[{"val":18446744073709551616}]}`,
	`{"results":[{"vals":[1,-2]}]}`,
	`{"results":[{"vals":[1,]}]}`,
	`{"results":[{"vals":null}]}`,
	`{"results":[{"found":1}]}`,
	`{"results":[{"found":"true"}]}`,
	`{"results":[{"found":truth}]}`,
	`{"results":[{"err":"é"}]}`,
	`{"results":[{"err":"tab	"}]}`,
	`{"results":[{"err":null}]}`,
	`{"results":[{"ttl":5}]}`,
	`{"results":[null]}`,
	`{"results":null}`,
	`{}`,
	`{"results":[{}]} x`,
	`{"results":[{"val":1}`,
	``,
}

var canonicalResponses = []string{
	`{"results":[]}`,
	`{"results":[{}]}` + "\n",
	`{"results":[{"val":1,"vals":[],"found":false,"err":""},{"err":"txkv: map full","found":true}]}`,
	" { \"results\" : [ { \"vals\" : [ 1 , 2 ] } , { } ] } \n",
	`{"results":[{"err":"a<b"}]}`, // the encoder escapes '<'; unescaped it is still plain ASCII
}

// FuzzBatchDecode holds the request codec to encoding/json on
// arbitrary bytes: whatever the fast path accepts, encoding/json
// accepts too and decodes to the same ops; the combined decoder
// answers exactly as the json.Decoder the server used to run; and
// whatever ops encoding/json decodes, the append encoder writes as
// json.Marshal does.
func FuzzBatchDecode(f *testing.F) {
	for _, name := range goldenWorkloads {
		req, _ := goldenBodies(f, name)
		f.Add(req)
	}
	for _, s := range append(append([]string{}, canonicalRequests...), nonCanonicalRequests...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var strict batchRequest
		strictErr := json.Unmarshal(body, &strict)
		if fast, ok := parseBatchRequest(nil, body); ok {
			if strictErr != nil {
				t.Fatalf("fast path accepted %q; encoding/json: %v", body, strictErr)
			}
			if !reflect.DeepEqual(fast, strict.Ops) {
				t.Fatalf("fast path decoded %q to %+v, encoding/json to %+v", body, fast, strict.Ops)
			}
		}
		want, wantErr := jsonDecodeRequest(body)
		got, err := decodeBatchRequest(nil, body)
		if !sameError(err, wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %q = %+v, %v; json.Decoder: %+v, %v", body, got, err, want, wantErr)
		}
		if wantErr == nil {
			marshalled, err := json.Marshal(batchRequest{Ops: want})
			if err != nil {
				t.Fatal(err)
			}
			if enc := AppendBatchRequest(nil, want); !bytes.Equal(enc, marshalled) {
				t.Fatalf("encoded %+v as %s, json.Marshal as %s", want, enc, marshalled)
			}
		}
	})
}

// FuzzBatchResponseDecode is FuzzBatchDecode for the response codec.
func FuzzBatchResponseDecode(f *testing.F) {
	for _, name := range goldenWorkloads {
		_, resp := goldenBodies(f, name)
		f.Add(resp)
	}
	for _, s := range append(append([]string{}, canonicalResponses...), nonCanonicalResponses...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var strict batchResponse
		strictErr := json.Unmarshal(body, &strict)
		if fast, ok := parseBatchResponse(nil, body); ok {
			if strictErr != nil {
				t.Fatalf("fast path accepted %q; encoding/json: %v", body, strictErr)
			}
			if !reflect.DeepEqual(fast, strict.Results) {
				t.Fatalf("fast path decoded %q to %+v, encoding/json to %+v", body, fast, strict.Results)
			}
		}
		var want batchResponse
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		got, err := ParseBatchResponse(nil, body)
		if !sameError(err, wantErr) || !reflect.DeepEqual(got, want.Results) {
			t.Fatalf("decode %q = %+v, %v; json.Decoder: %+v, %v", body, got, err, want.Results, wantErr)
		}
		if wantErr == nil {
			if enc, ref := appendBatchResponse(nil, want.Results), jsonEncodeResponse(t, want.Results); !bytes.Equal(enc, ref) {
				t.Fatalf("encoded %+v as %s, json.Encoder as %s", want.Results, enc, ref)
			}
		}
	})
}

// FuzzApplyBatch feeds wire ops to a store: whatever ops the request
// decoder returns for a body, applying them to a 16-bucket, 4-class
// store yields one result per op and leaves every structural invariant
// of CheckInvariants intact — no op from the wire can corrupt the map
// or its index. Seeded with every op kind at key 0 and the three keys
// next to the top of the key space, plus a document whose key range
// wraps past ^0.
func FuzzApplyBatch(f *testing.F) {
	for _, key := range []uint64{0, ^uint64(0) - 2, ^uint64(0) - 1, ^uint64(0)} {
		for _, kind := range []string{KindGet, KindPut, KindDelete, KindAdd, KindUpdateDoc, KindReadDoc} {
			f.Add(AppendBatchRequest(nil, []Op{{Kind: kind, Key: key, Val: 1, Fields: 2}}))
		}
	}
	f.Add([]byte(`{"ops":[{"op":"updatedoc","key":18446744073709551614,"fields":3,"val":1}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		ops, err := decodeBatchRequest(nil, body)
		if err != nil {
			return
		}
		s := New(Config{Capacity: 16, IndexClasses: 4, STM: stm.DefaultConfig()})
		if res := s.ApplyBatch(-1, rng.New(1), ops); len(res) != len(ops) {
			t.Fatalf("%d results for %d ops", len(res), len(ops))
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("ops %+v: %v", ops, err)
		}
	})
}

// sameError compares two errors by presence and text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestWireResponseDeclines is the response half of
// TestWireDecodeDeclines: which seeds the fast path takes is pinned,
// not just allowed.
func TestWireResponseDeclines(t *testing.T) {
	for _, body := range nonCanonicalResponses {
		if results, ok := parseBatchResponse(nil, []byte(body)); ok {
			t.Errorf("fast path accepted %q as %+v", body, results)
		}
	}
	for _, body := range canonicalResponses {
		if _, ok := parseBatchResponse(nil, []byte(body)); !ok {
			t.Errorf("fast path declined %q", body)
		}
	}
}
