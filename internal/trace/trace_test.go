package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"txconflict/internal/dist"
	"txconflict/internal/rng"
	"txconflict/internal/scenario"
	"txconflict/internal/stm"
)

// recordRun drives the named scenario on the STM runtime with a
// Recorder installed and returns the captured trace.
func recordRun(t *testing.T, bench string, workers int, d time.Duration) *Trace {
	t.Helper()
	sc, err := scenario.ByName(bench, scenario.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	cfg := stm.DefaultConfig()
	rec := NewRecorder(bench, workers, cfg.String())
	cfg.Trace = rec
	rn := scenario.NewSTMRunner(sc, cfg)
	res := rn.Drive(workers, d, 7)
	if res.Ops() == 0 {
		t.Fatalf("%s: no transactions recorded", bench)
	}
	if err := rn.Check(res.PerWorker); err != nil {
		t.Fatalf("%s: recorded run invariant: %v", bench, err)
	}
	return rec.Snapshot()
}

// TestRecorderCapture checks an end-to-end recorded run: header
// provenance, per-record annotation (the scenario half), footprints,
// and the start-time ordering of Snapshot.
func TestRecorderCapture(t *testing.T) {
	tr := recordRun(t, "txapp", 2, 30*time.Millisecond)
	if tr.Scenario != "txapp" || tr.Workers != 2 || tr.Format != FormatName || tr.Version != FormatVersion {
		t.Fatalf("header = %+v", tr.Header)
	}
	if tr.Count != len(tr.Records) || len(tr.Records) == 0 {
		t.Fatalf("record count: header %d, actual %d", tr.Count, len(tr.Records))
	}
	if tr.Commits() == 0 {
		t.Fatal("no committed records")
	}
	prev := int64(math.MinInt64)
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.StartNs < prev {
			t.Fatalf("record %d out of order: %d after %d", i, r.StartNs, prev)
		}
		prev = r.StartNs
		if r.Worker < 0 || r.Worker > 1 {
			t.Fatalf("record %d worker = %d", i, r.Worker)
		}
		if !r.Committed {
			continue
		}
		// txapp: read 2 objects, compute 60, increment both.
		if r.Ops != 5 || r.Compute != 60 || r.Think != 10 {
			t.Fatalf("record %d annotation = ops %d compute %v think %v", i, r.Ops, r.Compute, r.Think)
		}
		if len(r.Writes) != 2 {
			t.Fatalf("record %d writes = %v", i, r.Writes)
		}
	}
}

// TestSaveLoadRoundTrip pins the on-disk format: a saved trace loads
// back identical, and corrupted variants of its bytes are rejected
// with telling errors.
func TestSaveLoadRoundTrip(t *testing.T) {
	tr := recordRun(t, "hotspot", 2, 20*time.Millisecond)
	path := filepath.Join(t.TempDir(), "run.btrace")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip diverged:\nsaved  %+v\nloaded %+v", tr.Header, got.Header)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, content []byte, wantErr string) {
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: err = %v, want %q", name, err, wantErr)
		}
	}
	corrupt("newer.btrace",
		bytes.Replace(raw, []byte(`"version":1`), []byte(`"version":9`), 1),
		"unsupported format version")
	corrupt("alien.btrace", []byte(`{"format":"something-else","version":1}`+"\n"), "not a txconflict-trace")
	corrupt("empty.btrace", nil, "read binary magic")
	// Cut where the footer starts: every block intact, the count
	// never arrives.
	footerOff := binary.LittleEndian.Uint64(raw[len(raw)-16:])
	corrupt("short.btrace", raw[:footerOff], "truncated binary stream")
	// A footer promising more records than the blocks hold.
	corrupt("lying-count.btrace", withFooterTotal(raw, uint64(len(tr.Records)+3)), "truncated stream")
}

// TestRecorderOverflow routes unattributed blocks (plain Atomic, no
// worker id) into the overflow buffer instead of dropping them.
func TestRecorderOverflow(t *testing.T) {
	rec := NewRecorder("manual", 1, "")
	cfg := stm.DefaultConfig()
	cfg.Trace = rec
	rt := stm.New(4, cfg)
	r := rng.New(1)
	_ = rt.Atomic(r, func(tx *stm.Tx) error { tx.Store(0, 1); return nil })
	_ = rt.AtomicWorker(0, r, func(tx *stm.Tx) error { tx.Store(1, 1); return nil })
	tr := rec.Snapshot()
	if len(tr.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(tr.Records))
	}
	workers := map[int32]bool{}
	for _, r := range tr.Records {
		workers[r.Worker] = true
	}
	if !workers[-1] || !workers[0] {
		t.Fatalf("worker attribution = %+v", tr.Records)
	}
}

// TestRecorderOverflowAnnotation pins the overflow-buffer annotation
// rule: with interleaved out-of-range workers, each annotation must
// land on the newest record of the *matching* worker, never on
// whichever record happens to be last.
func TestRecorderOverflowAnnotation(t *testing.T) {
	rec := NewRecorder("manual", 1, "")
	emit := func(worker int) {
		rec.TraceTx(&stm.TxTrace{Worker: worker, Committed: true})
	}
	emit(5)
	emit(7) // worker 7's block lands after worker 5's, before 5 annotates
	rec.AnnotateProgram(5, 3, 30, 1)
	rec.AnnotateProgram(7, 4, 40, 2)
	for _, r := range rec.Snapshot().Records {
		switch r.Worker {
		case 5:
			if r.Ops != 3 || r.Compute != 30 {
				t.Fatalf("worker 5 record mis-annotated: %+v", r)
			}
		case 7:
			if r.Ops != 4 || r.Compute != 40 {
				t.Fatalf("worker 7 record mis-annotated: %+v", r)
			}
		default:
			t.Fatalf("unexpected record %+v", r)
		}
	}
}

// TestProfileAndSamplers checks the aggregation arithmetic on a
// hand-built trace and the dist-catalog bridge (raw and rescaled).
func TestProfileAndSamplers(t *testing.T) {
	tr := &Trace{
		Header: Header{Scenario: "unit", Workers: 2},
		Records: []Record{
			{Committed: true, Compute: 10, Think: 2, Reads: []uint32{0}, Writes: []uint32{1}, DurNs: 100, StartNs: 0},
			{Committed: true, Compute: 30, Think: 4, Reads: []uint32{1, 2}, Writes: []uint32{0, 3}, DurNs: 100, StartNs: 50, Retries: 2, GraceNs: 40},
			{Committed: false, Compute: 99, Think: 9, DurNs: 100, StartNs: 100}, // aborted: excluded from samples
		},
	}
	p := NewProfile(tr)
	if p.Records != 3 || p.Commits != 2 {
		t.Fatalf("counts = %d/%d", p.Records, p.Commits)
	}
	if p.MeanLength != 20 || p.MeanThink != 3 {
		t.Fatalf("means = %v/%v", p.MeanLength, p.MeanThink)
	}
	if p.MeanReads != 1.5 || p.MeanWrites != 1.5 {
		t.Fatalf("footprints = %v/%v", p.MeanReads, p.MeanWrites)
	}
	if p.AbortsPerCommit != 1 {
		t.Fatalf("aborts/commit = %v", p.AbortsPerCommit)
	}
	if p.SpanNs != 200 {
		t.Fatalf("span = %d", p.SpanNs)
	}

	if ls := dist.NewEmpirical("trace:unit", p.Lengths); ls.Mean() != 20 {
		t.Fatalf("length sampler mean = %v", ls.Mean())
	}
	if ts := dist.NewEmpirical("trace:unit:think", p.Thinks); ts.Mean() != 3 {
		t.Fatalf("think sampler mean = %v", ts.Mean())
	}

	lname, tname, err := p.RegisterSamplers("Unit-Key")
	if err != nil {
		t.Fatal(err)
	}
	if lname != "trace:unit-key" || tname != "trace:unit-key:think" {
		t.Fatalf("registered names = %q, %q", lname, tname)
	}
	raw, err := dist.ByName(lname, 0) // mu <= 0: raw trace
	if err != nil || raw.Mean() != 20 {
		t.Fatalf("raw catalog sampler mean = %v (%v)", raw.Mean(), err)
	}
	scaled, err := dist.ByName(lname, 500)
	if err != nil || math.Abs(scaled.Mean()-500) > 1e-9 {
		t.Fatalf("rescaled catalog sampler mean = %v (%v)", scaled.Mean(), err)
	}
	if _, _, err := p.RegisterSamplers("unit-key"); err == nil {
		t.Fatal("duplicate sampler registration accepted")
	}

	empty := NewProfile(&Trace{Header: Header{Scenario: "none"}})
	if _, _, err := empty.RegisterSamplers("none"); err == nil || len(empty.Lengths) != 0 {
		t.Fatalf("empty profile registered samplers over %d lengths (%v)", len(empty.Lengths), err)
	}
	if tab := p.Table(); len(tab.Rows) == 0 {
		t.Fatal("profile table is empty")
	}
}

// TestReplayFromRecordedTrace closes the loop inside the package: a
// recorded hotspot run replays on the STM runtime with the invariant
// intact, and registers as a first-class scenario.
func TestReplayFromRecordedTrace(t *testing.T) {
	tr := recordRun(t, "hotspot", 2, 20*time.Millisecond)
	sc, err := ReplayScenario(tr, scenario.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name() != "replay:hotspot" {
		t.Fatalf("replay name = %q", sc.Name())
	}
	rn := scenario.NewSTMRunner(sc, stm.DefaultConfig())
	res := rn.Drive(2, 20*time.Millisecond, 3)
	if res.Ops() == 0 {
		t.Fatal("replay ran no transactions")
	}
	if err := rn.Check(res.PerWorker); err != nil {
		t.Fatalf("replay invariant: %v", err)
	}

	if err := RegisterScenario("replay:trace-test", tr); err != nil {
		t.Fatal(err)
	}
	reg, err := scenario.ByName("replay:trace-test", scenario.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Words() != sc.Words() {
		t.Fatalf("registered replay arena = %d words, direct = %d", reg.Words(), sc.Words())
	}
	if err := RegisterScenario("replay:trace-test", tr); err == nil {
		t.Fatal("duplicate scenario registration accepted")
	}
	if err := RegisterScenario("x", &Trace{}); err == nil {
		t.Fatal("empty trace registered as scenario")
	}
}
