package trace

import (
	"sort"
	"sync"
	"time"

	"txconflict/internal/stm"
)

// workerBuf is one worker's append-only record buffer, padded so two
// workers' slice headers never share a cache line (each buffer is
// written by exactly one goroutine; the padding keeps the headers
// from false-sharing while they grow).
type workerBuf struct {
	recs []Record
	_    [40]byte
}

// Recorder captures one Record per atomic block with per-worker
// append-only buffers. It implements stm.Tracer (install it as
// stm.Config.Trace) and scenario.ProgramAnnotator (scenario.STMRunner
// detects it on the same Config and supplies the program-level half
// of each record on the worker's own goroutine).
//
// Writes are contention-free: worker w appends only to buffer w from
// its own goroutine. Blocks arriving with an out-of-range or unknown
// worker id (plain stm.Atomic calls) land in a mutex-guarded
// overflow buffer. Snapshot must only be called after the recorded
// workers have stopped.
type Recorder struct {
	scenario string
	config   string
	epochNs  int64
	unitNs   float64

	bufs []workerBuf

	overMu sync.Mutex
	over   []Record
}

// NewRecorder builds a recorder for a run of the named scenario with
// the given worker count. Buffers do NOT grow: blocks from workers
// outside [0, workers) fall into the shared overflow buffer (slower,
// mutex-guarded), so size the recorder to the run's actual worker
// count. config is free-form provenance, conventionally
// stm.Config.String().
func NewRecorder(scenarioName string, workers int, config string) *Recorder {
	if workers < 1 {
		workers = 1
	}
	return &Recorder{
		scenario: scenarioName,
		config:   config,
		epochNs:  time.Now().UnixNano(),
		bufs:     make([]workerBuf, workers),
	}
}

// SetUnitNs stamps the calibrated wall-nanoseconds per compute unit
// into the recorder's provenance (Header.UnitNs; see
// scenario.CalibrateUnitNs). Call before the recorded run starts.
func (rec *Recorder) SetUnitNs(ns float64) {
	if ns > 0 {
		rec.unitNs = ns
	}
}

// TraceTx implements stm.Tracer: copy the block's trace into the
// worker's buffer (the TxTrace and its slices are only valid during
// this call). Footprints are copied sorted — the runtime dedupes but
// does not order them, and sorted footprints are what the binary
// format's delta coder compresses.
func (rec *Recorder) TraceTx(t *stm.TxTrace) {
	r := Record{
		Worker:        int32(t.Worker),
		StartNs:       t.StartUnixNs - rec.epochNs,
		DurNs:         t.DurNs,
		GraceNs:       t.GraceWaitNs,
		Retries:       uint32(t.Retries),
		KillsSuffered: uint32(t.KillsSuffered),
		KillsIssued:   uint32(t.KillsIssued),
		Committed:     t.Committed,
		Irrevocable:   t.Irrevocable,
		FoldedWrites:  uint32(t.FoldedWrites),
	}
	if len(t.Reads) > 0 {
		r.Reads = append(make([]uint32, 0, len(t.Reads)), t.Reads...)
		sortU32(r.Reads)
	}
	if len(t.Writes) > 0 {
		r.Writes = append(make([]uint32, 0, len(t.Writes)), t.Writes...)
		sortU32(r.Writes)
	}
	if w := t.Worker; w >= 0 && w < len(rec.bufs) {
		rec.bufs[w].recs = append(rec.bufs[w].recs, r)
		return
	}
	rec.overMu.Lock()
	rec.over = append(rec.over, r)
	rec.overMu.Unlock()
}

// AnnotateProgram implements scenario.ProgramAnnotator: attach the
// scenario-level context to the worker's most recent record. It runs
// on the worker's goroutine immediately after the runtime delivered
// the block's TxTrace, so the worker's newest record is exactly that
// block — in the overflow buffer (where workers interleave) the
// newest record with a matching worker id is.
func (rec *Recorder) AnnotateProgram(worker, ops int, compute, think float64) {
	if worker >= 0 && worker < len(rec.bufs) {
		if n := len(rec.bufs[worker].recs); n > 0 {
			r := &rec.bufs[worker].recs[n-1]
			r.Ops = uint32(ops)
			r.Compute = compute
			r.Think = think
		}
		return
	}
	rec.overMu.Lock()
	for i := len(rec.over) - 1; i >= 0; i-- {
		if r := &rec.over[i]; r.Worker == int32(worker) {
			r.Ops = uint32(ops)
			r.Compute = compute
			r.Think = think
			break
		}
	}
	rec.overMu.Unlock()
}

// Len returns the total number of captured records. Like Snapshot it
// must only be called once the recorded workers have stopped.
func (rec *Recorder) Len() int {
	n := len(rec.over)
	for i := range rec.bufs {
		n += len(rec.bufs[i].recs)
	}
	return n
}

// Snapshot merges the per-worker buffers into a Trace, ordered by
// start time (ties broken by worker). It must only be called after
// the recorded workers have stopped; the records are copied, so the
// recorder may be reused or dropped afterwards.
func (rec *Recorder) Snapshot() *Trace {
	merged := make([]Record, 0, rec.Len())
	for i := range rec.bufs {
		merged = append(merged, rec.bufs[i].recs...)
	}
	rec.overMu.Lock()
	merged = append(merged, rec.over...)
	rec.overMu.Unlock()
	sort.SliceStable(merged, func(a, b int) bool {
		if merged[a].StartNs != merged[b].StartNs {
			return merged[a].StartNs < merged[b].StartNs
		}
		return merged[a].Worker < merged[b].Worker
	})
	return &Trace{Header: Header{
		Format:         FormatName,
		Version:        FormatVersion,
		Scenario:       rec.scenario,
		Workers:        len(rec.bufs),
		Config:         rec.config,
		CapturedUnixNs: rec.epochNs,
		UnitNs:         rec.unitNs,
		Count:          len(merged),
	}, Records: merged}
}

// sortU32 orders a small footprint slice in place (insertion sort —
// footprints are typically a handful of words, and this avoids the
// sort.Slice closure allocation on the capture path).
func sortU32(xs []uint32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
