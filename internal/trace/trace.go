// Package trace closes the profile-to-simulation loop of Section 1
// of "The Transactional Conflict Problem": the paper motivates its
// analysis with transaction-length distributions profiled from real
// transactional workloads, and this package records what the
// internal/stm runtime actually executed, persists it, and feeds it
// back into both execution backends.
//
// The pieces:
//
//   - Recorder: a low-overhead stm.Tracer with per-worker append-only
//     buffers (installed via stm.Config.Trace, annotated with
//     program-level context by scenario.STMRunner). One Record per
//     atomic block: footprints, retries, kills, grace waits, timings.
//   - Save/Load: one written format, the block-framed binary
//     container (BinaryExt ".btrace", see binary.go: varint + delta
//     coding, per-block CRC and optional DEFLATE, an index footer
//     for seek/sample). Save/Create refuse any other extension. Load
//     auto-detects by content and still reads the read-only JSONL
//     format of earlier builds (one JSON header line, one JSON record
//     per line, ~4-10x larger); Convert streams JSONL into .btrace.
//   - Writer/RecordWriter and RecordReader: the streaming pair —
//     record and replay paths never hold a full trace in memory, so
//     10⁶–10⁸-transaction captures stream through a bounded block
//     buffer. LoadSample uses the binary index to replay an evenly
//     spaced sample of an arbitrarily large trace.
//   - Profile: the aggregator turning a trace into length and
//     think-time distributions (dist.NewEmpirical samplers,
//     registrable in the dist.ByName catalog as "trace:<key>") and a
//     summary table with a log₂ length histogram.
//   - ReplayScenario/RegisterScenario: the bridge to
//     scenario.NewReplay, so a recorded trace runs as a first-class
//     scenario on the HTM simulator and the STM runtime alike
//     (stmbench -replay/-fidelity), with a verifiable invariant.
//
// experiments.TraceFidelity stacks these into the measure-model-
// validate report: record a real run, replay the identical footprints
// on the simulator, compare throughput and abort behaviour.
package trace

// Record is one atomic block of a recorded run: the runtime-observed
// half (outcome, retries, kills, grace waits, concrete word
// footprints, timings) merged with the scenario-level half (program
// op count, sampled compute length, think time). Field tags are kept
// short — traces run to millions of lines.
type Record struct {
	// Worker is the recording worker index (-1 for unattributed
	// blocks that reached the overflow buffer).
	Worker int32 `json:"w"`
	// StartNs is the block's start, in nanoseconds since the
	// recorder's epoch (Header.CapturedUnixNs).
	StartNs int64 `json:"t"`
	// DurNs is the block's wall-clock duration.
	DurNs int64 `json:"d"`
	// GraceNs is the total grace-wait time across attempts.
	GraceNs int64 `json:"g,omitempty"`
	// Retries counts aborted attempts before the outcome.
	Retries uint32 `json:"r,omitempty"`
	// KillsSuffered and KillsIssued count conflict kills on each side
	// of the ledger.
	KillsSuffered uint32 `json:"kr,omitempty"`
	KillsIssued   uint32 `json:"ki,omitempty"`
	// Committed distinguishes commits from user-level aborts.
	Committed bool `json:"c"`
	// Irrevocable marks blocks that fell back to the slow path.
	Irrevocable bool `json:"irr,omitempty"`
	// Ops is the program length (scenario annotation).
	Ops uint32 `json:"o,omitempty"`
	// Compute is the program's sampled in-transaction compute, in
	// scenario units (simulated cycles / busy-work iterations).
	Compute float64 `json:"l,omitempty"`
	// Think is the program's post-commit think time, same units.
	Think float64 `json:"th,omitempty"`
	// Reads and Writes are the distinct word indices of the final
	// attempt's footprint.
	Reads  []uint32 `json:"rs,omitempty"`
	Writes []uint32 `json:"ws,omitempty"`
	// FoldedWrites counts the block's delta-writes (stm.Tx.Add) that
	// the group-commit combiner folded into summed stores instead of
	// writing back individually. Zero (and absent from JSONL) for
	// blocks committed outside the fold path, and in every file
	// written before the field existed.
	FoldedWrites uint32 `json:"fw,omitempty"`
}

// Header identifies a trace: provenance (scenario, worker count,
// runtime config, capture time) plus the format version and record
// count used to validate files on load.
type Header struct {
	// Format is always FormatName; Version is the writer's
	// FormatVersion.
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Scenario is the recorded scenario's registry name.
	Scenario string `json:"scenario"`
	// Workers is the recording worker count.
	Workers int `json:"workers"`
	// Config is the stm.Config.String() of the recorded runtime.
	Config string `json:"config,omitempty"`
	// CapturedUnixNs is the recorder's epoch (wall clock).
	CapturedUnixNs int64 `json:"capturedUnixNs"`
	// Count is the record count (truncation check on load).
	Count int `json:"records"`
	// UnitNs is the recording machine's calibrated wall-clock
	// nanoseconds per scenario compute unit (one busy-work
	// iteration), measured at capture time. It closes the units gap
	// between the two backends: at the simulator's 1 GHz convention,
	// recorded units × UnitNs = simulated cycles, so a trace recorded
	// on one box replays faithfully on the simulator
	// (ReplayScenarioCycles). 0 in files written before calibration
	// existed — replay then falls back to 1 unit = 1 cycle.
	UnitNs float64 `json:"unitNs,omitempty"`
	// Sampled is the original capture's record count when this trace
	// is an index-sampled subset (LoadSample); 0 for full loads.
	Sampled int `json:"sampled,omitempty"`
}

// Trace is a fully loaded (or freshly captured) trace.
type Trace struct {
	Header
	Records []Record
}

// Commits counts committed records.
func (tr *Trace) Commits() int {
	n := 0
	for i := range tr.Records {
		if tr.Records[i].Committed {
			n++
		}
	}
	return n
}

// SpanNs returns the wall-clock span covered by the records: from
// the earliest start to the latest end.
func (tr *Trace) SpanNs() int64 {
	if len(tr.Records) == 0 {
		return 0
	}
	lo, hi := int64(1<<62), int64(-1<<62)
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.StartNs < lo {
			lo = r.StartNs
		}
		if end := r.StartNs + r.DurNs; end > hi {
			hi = end
		}
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}
