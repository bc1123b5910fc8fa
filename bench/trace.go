package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. Spans of one request share a root: a
// child names its parent's id, 0 marks a root.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds what one traced run keeps (and writes): enough to
// follow a few thousand requests through every layer without the
// span file growing to the run's full request count.
const maxSpans = 1 << 15

// tracer records spans in memory, from benchmark code only; nothing
// inside the program is instrumented. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, maxSpans)}
}

// begin reserves a span id, so a child can name its parent before the
// parent ends.
func (t *tracer) begin() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// end stores the span; ids are unique, so writers never share a slot.
func (t *tracer) end(id, parent uint64, name string, t0, t1 time.Time) {
	if t == nil || id == 0 || id > maxSpans {
		return
	}
	t.spans[id-1] = span{ID: id, Parent: parent, Name: name,
		StartNs: t0.Sub(t.epoch).Nanoseconds(), EndNs: t1.Sub(t.epoch).Nanoseconds()}
}

// reset drops what warm-up recorded.
func (t *tracer) reset() { t.next.Store(0) }

// write emits the kept spans and how many were dropped past maxSpans.
func (t *tracer) write(dir, workload string) error {
	n := t.next.Load()
	kept := min(n, maxSpans)
	doc := struct {
		Workload string `json:"workload"`
		Dropped  uint64 `json:"spans_dropped"`
		Spans    []span `json:"spans"`
	}{workload, n - kept, t.spans[:kept]}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(buf, '\n'), 0o644)
}

// spanHeader carries the client.do span id across the socket.
const spanHeader = "X-Bench-Span"

// spanTransport stamps each outgoing request with its caller's
// current span id. One per user: cur is written by the user's own
// goroutine just before Do.
type spanTransport struct {
	base http.RoundTripper
	cur  uint64
}

func (s *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatUint(s.cur, 10))
	return s.base.RoundTrip(r)
}

// tracedHandler wraps txkv.Server on the traced run: one http.handler
// span per request, parented on the client's span, plus the body
// sizes that crossed the socket.
type tracedHandler struct {
	next http.Handler
	tr   *tracer

	mu                  sync.Mutex
	durs                []uint32
	reqBytes, respBytes uint64
}

type countingWriter struct {
	http.ResponseWriter
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += uint64(n)
	return n, err
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	id := h.tr.begin()
	cw := &countingWriter{ResponseWriter: w}
	t0 := time.Now()
	h.next.ServeHTTP(cw, r)
	t1 := time.Now()
	h.tr.end(id, parent, "http.handler", t0, t1)
	h.mu.Lock()
	h.durs = append(h.durs, uint32(t1.Sub(t0)))
	h.reqBytes += uint64(max(r.ContentLength, 0))
	h.respBytes += cw.n
	h.mu.Unlock()
}

func (h *tracedHandler) reset() {
	h.mu.Lock()
	h.durs, h.reqBytes, h.respBytes = h.durs[:0], 0, 0
	h.mu.Unlock()
}
