package txkv

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// The /v1/batch wire codec (contract in the package comment): append
// encoders whose output is byte for byte what encoding/json writes for
// batchRequest and batchResponse, and strict decoders for the canonical
// shape those encoders produce. A decoder either returns the value
// encoding/json would have returned or reports "don't know", and the
// caller then hands the same bytes to encoding/json — so every error
// string and every leniency of the reflective decoder (case-folded
// keys, ignored unknown fields, escapes, data after the value) is
// still encoding/json's own.

// batchRequest and batchResponse are the /v1/batch wire format, and
// the slow path's decode targets.
type batchRequest struct {
	Ops []Op `json:"ops"`
}

type batchResponse struct {
	Results []Result `json:"results"`
}

// AppendBatchRequest appends the /v1/batch request body for ops to dst:
// the bytes json.Marshal(batchRequest{ops}) returns.
func AppendBatchRequest(dst []byte, ops []Op) []byte {
	dst = append(dst, `{"ops":`...)
	if ops == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i := range ops {
		op := &ops[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"op":`...)
		dst = appendString(dst, op.Kind)
		dst = append(dst, `,"key":`...)
		dst = strconv.AppendUint(dst, op.Key, 10)
		if op.Val != 0 {
			dst = append(dst, `,"val":`...)
			dst = strconv.AppendUint(dst, op.Val, 10)
		}
		if op.Fields != 0 {
			dst = append(dst, `,"fields":`...)
			dst = strconv.AppendInt(dst, int64(op.Fields), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendBatchResponse appends the /v1/batch response body to dst: the
// bytes json.Encoder.Encode(batchResponse{results}) writes, trailing
// newline included.
func appendBatchResponse(dst []byte, results []Result) []byte {
	dst = append(dst, `{"results":`...)
	if results == nil {
		return append(dst, "null}\n"...)
	}
	dst = append(dst, '[')
	for i := range results {
		res := &results[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		open := len(dst)
		if res.Val != 0 {
			dst = append(dst, `"val":`...)
			dst = strconv.AppendUint(dst, res.Val, 10)
		}
		if len(res.Vals) != 0 {
			dst = appendMember(dst, open, `"vals":[`)
			for j, v := range res.Vals {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendUint(dst, v, 10)
			}
			dst = append(dst, ']')
		}
		if res.Found {
			dst = appendMember(dst, open, `"found":true`)
		}
		if res.Err != "" {
			dst = appendMember(dst, open, `"err":`)
			dst = appendString(dst, res.Err)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// appendMember appends an object member's leading text, after a comma
// unless it is the first member of the object opened at dst[open-1].
func appendMember(dst []byte, open int, member string) []byte {
	if len(dst) > open {
		dst = append(dst, ',')
	}
	return append(dst, member...)
}

// appendString appends s as a JSON string. Only printable ASCII that
// encoding/json copies through unescaped is written here; anything
// else is encoding/json's to escape, so the two cannot drift.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// wireParser is a cursor over one /v1/batch body. Every method
// reports false on anything outside the canonical shape and the
// caller gives up at once, so the cursor is never read after a miss.
type wireParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *wireParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c, after any whitespace.
func (p *wireParser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes a string of unescaped ASCII and returns its contents
// (a sub-slice of the body). Escapes are encoding/json's to expand and
// non-ASCII bytes its to validate.
func (p *wireParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// key consumes an object key and its colon.
func (p *wireParser) key() ([]byte, bool) {
	k, ok := p.str()
	return k, ok && p.eat(':')
}

// uint consumes an unsigned decimal integer of at most max: "0", or
// digits without a leading zero. A sign, fraction or exponent is left
// for the caller's next token to trip over.
func (p *wireParser) uint(max uint64) (uint64, bool) {
	p.ws()
	if p.i == len(p.b) {
		return 0, false
	}
	if p.b[p.i] == '0' {
		p.i++
		return 0, true
	}
	var v uint64
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		c := p.b[p.i]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, p.i > start
}

// bool consumes true or false.
func (p *wireParser) bool() (v, ok bool) {
	p.ws()
	switch rest := p.b[p.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += 5
		return false, true
	}
	return false, false
}

// openFrame consumes `{"name":[`: a whole body is that, the array's
// elements, and closeFrame.
func (p *wireParser) openFrame(name string) bool {
	if !p.eat('{') {
		return false
	}
	k, ok := p.key()
	return ok && string(k) == name && p.eat('[')
}

// closeFrame consumes the body's closing brace (the array's bracket is
// already consumed) and requires nothing but whitespace after it.
func (p *wireParser) closeFrame() bool {
	if !p.eat('}') {
		return false
	}
	p.ws()
	return p.i == len(p.b)
}

// Member bits of the canonical objects, for duplicate detection.
const (
	seenOp = 1 << iota
	seenKey
	seenVal
	seenFields
	seenVals
	seenFound
	seenErr
)

// internKind maps a decoded op kind to its constant; an unknown kind is
// declined (the slow path allocates it and Apply answers the error).
func internKind(b []byte) (string, bool) {
	switch string(b) {
	case KindGet:
		return KindGet, true
	case KindPut:
		return KindPut, true
	case KindDelete:
		return KindDelete, true
	case KindAdd:
		return KindAdd, true
	case KindUpdateDoc:
		return KindUpdateDoc, true
	case KindReadDoc:
		return KindReadDoc, true
	}
	return "", false
}

// parseBatchRequest is the fast path of the request decoder: the ops of
// a canonical body appended to dst[:0], or ok=false for "don't know".
// It declines a batch above maxBatchOps, so a scratch dst never grows
// past the limit and Exec's error carries encoding/json's count.
func parseBatchRequest(dst []Op, body []byte) (ops []Op, ok bool) {
	p := wireParser{b: body}
	if !p.openFrame("ops") {
		return nil, false
	}
	ops = dst[:0]
	if ops == nil {
		ops = []Op{} // "ops":[] decodes to an empty slice, not nil
	}
	for !p.eat(']') {
		if len(ops) > 0 && !p.eat(',') {
			return nil, false
		}
		if len(ops) == maxBatchOps || !p.eat('{') {
			return nil, false
		}
		var op Op
		var seen uint
		for !p.eat('}') {
			if seen != 0 && !p.eat(',') {
				return nil, false
			}
			k, ok := p.key()
			if !ok {
				return nil, false
			}
			var bit uint
			switch string(k) {
			case "op":
				bit = seenOp
				var s []byte
				if s, ok = p.str(); ok {
					op.Kind, ok = internKind(s)
				}
			case "key":
				bit = seenKey
				op.Key, ok = p.uint(math.MaxUint64)
			case "val":
				bit = seenVal
				op.Val, ok = p.uint(math.MaxUint64)
			case "fields":
				bit = seenFields
				var v uint64
				v, ok = p.uint(math.MaxInt)
				op.Fields = int(v)
			default:
				return nil, false
			}
			if !ok || seen&bit != 0 {
				return nil, false
			}
			seen |= bit
		}
		ops = append(ops, op)
	}
	return ops, p.closeFrame()
}

// parseBatchResponse is the fast path of the response decoder; see
// parseBatchRequest. Err strings and Vals slices are fresh
// allocations, so the results do not alias body.
func parseBatchResponse(dst []Result, body []byte) (results []Result, ok bool) {
	p := wireParser{b: body}
	if !p.openFrame("results") {
		return nil, false
	}
	results = dst[:0]
	if results == nil {
		results = []Result{}
	}
	for !p.eat(']') {
		if len(results) > 0 && !p.eat(',') {
			return nil, false
		}
		if !p.eat('{') {
			return nil, false
		}
		var res Result
		var seen uint
		for !p.eat('}') {
			if seen != 0 && !p.eat(',') {
				return nil, false
			}
			k, ok := p.key()
			if !ok {
				return nil, false
			}
			var bit uint
			switch string(k) {
			case "val":
				bit = seenVal
				res.Val, ok = p.uint(math.MaxUint64)
			case "vals":
				bit = seenVals
				res.Vals, ok = p.uints()
			case "found":
				bit = seenFound
				res.Found, ok = p.bool()
			case "err":
				bit = seenErr
				var s []byte
				s, ok = p.str()
				res.Err = string(s)
			default:
				return nil, false
			}
			if !ok || seen&bit != 0 {
				return nil, false
			}
			seen |= bit
		}
		results = append(results, res)
	}
	return results, p.closeFrame()
}

// uints consumes an array of unsigned integers into a fresh slice
// (empty, not nil, for "[]", as encoding/json decodes it).
func (p *wireParser) uints() ([]uint64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	if p.eat(']') {
		return []uint64{}, true
	}
	// Count the commas first: one exact allocation per array.
	n := 1
	for j := p.i; j < len(p.b) && p.b[j] != ']'; j++ {
		if p.b[j] == ',' {
			n++
		}
	}
	vals := make([]uint64, 0, n)
	for len(vals) == 0 || p.eat(',') {
		v, ok := p.uint(math.MaxUint64)
		if !ok {
			return nil, false
		}
		vals = append(vals, v)
	}
	return vals, p.eat(']')
}

// decodeBatchRequest decodes a /v1/batch request body: the fast path
// into dst[:0] when the bytes are canonical, otherwise encoding/json
// into a slice of its own, exactly as a json.Decoder over the body
// would (one value; what follows it is not read).
func decodeBatchRequest(dst []Op, body []byte) ([]Op, error) {
	if ops, ok := parseBatchRequest(dst, body); ok {
		return ops, nil
	}
	var req batchRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Ops, err
}

// ParseBatchResponse decodes a /v1/batch response body, appending to
// dst[:0] when the bytes are canonical and falling back to
// encoding/json (which allocates its own slice) when they are not. The
// results never alias body.
func ParseBatchResponse(dst []Result, body []byte) ([]Result, error) {
	if results, ok := parseBatchResponse(dst, body); ok {
		return results, nil
	}
	var resp batchResponse
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&resp)
	return resp.Results, err
}

// batchScratch is the per-request working memory of both ends of the
// socket: Server.handleBatch uses all of it, HTTPClient.Do the body
// and out buffers. Nothing a caller keeps may point into it.
type batchScratch struct {
	body bytes.Buffer     // the request (server) or response (client) as read
	lr   io.LimitedReader // the server's body limit, without its allocation
	ops  []Op
	res  []Result
	out  []byte // the encoded response (server) or request (client)
}

// maxPooledBytes keeps one outsized request from pinning megabytes in
// the pool; ordinary batches are a few kilobytes.
const maxPooledBytes = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getScratch() *batchScratch { return scratchPool.Get().(*batchScratch) }

// putScratch recycles sc. Both ends call it only after a request that
// succeeded, when nothing else can still touch the scratch: on the
// server its batch has run and been encoded, and on the client a 200
// has proved the transport is done reading the request bytes.
func putScratch(sc *batchScratch) {
	if sc.body.Cap() > maxPooledBytes || cap(sc.out) > maxPooledBytes {
		return
	}
	sc.lr.R = nil
	scratchPool.Put(sc)
}
