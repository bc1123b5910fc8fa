package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"txconflict/internal/scenario"
	"txconflict/internal/stm"
)

// synthTrace builds a deterministic n-record trace shaped like a
// hotspot capture: sorted read footprints, single-word writes, a mix
// of commits and aborts, and the occasional unattributed (-1) worker.
func synthTrace(n int) *Trace {
	tr := &Trace{
		Header: Header{
			Scenario:       "synth",
			Workers:        4,
			Config:         "unit-test",
			CapturedUnixNs: 1700000000000000000,
			UnitNs:         1.5,
		},
	}
	x := uint64(12345)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		base := uint32(x % 512)
		r := Record{
			Worker:    int32(i % 4),
			StartNs:   int64(i) * 1500,
			DurNs:     1200 + int64(x%400),
			Retries:   uint32(x % 3),
			Committed: x%8 != 0,
			Ops:       5,
			Compute:   60,
			Think:     10,
			Reads:     []uint32{base, base + 1, base + 7},
			Writes:    []uint32{base},
		}
		if i%97 == 0 {
			r.Worker = -1
			r.Irrevocable = true
			r.GraceNs = 250
			r.KillsIssued = 1
			r.FoldedWrites = 2
		}
		tr.Records = append(tr.Records, r)
	}
	tr.Count = len(tr.Records)
	return tr
}

// normalizeTrace maps semantically equal traces to one representative:
// nil and empty footprints are the same record (JSONL's omitempty
// round-trips empty slices as nil), and the mutable accounting fields
// the pipeline stamps (Count, Sampled) are cleared.
func normalizeTrace(tr *Trace) *Trace {
	out := &Trace{Header: tr.Header}
	out.Format = FormatName
	out.Version = FormatVersion
	out.Count = 0
	out.Sampled = 0
	out.Records = make([]Record, len(tr.Records))
	copy(out.Records, tr.Records)
	for i := range out.Records {
		r := &out.Records[i]
		if len(r.Reads) == 0 {
			r.Reads = nil
		}
		if len(r.Writes) == 0 {
			r.Writes = nil
		}
	}
	return out
}

// TestBinaryRoundTrip pins the materialized binary path: WriteBinary
// then ReadBinary returns the same records, the header survives
// (including the UnitNs calibration), and the footer count is
// authoritative.
func TestBinaryRoundTrip(t *testing.T) {
	tr := synthTrace(1000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Format != FormatName || got.Version != FormatVersion {
		t.Fatalf("header format = %q v%d", got.Format, got.Version)
	}
	if got.Count != 1000 || len(got.Records) != 1000 {
		t.Fatalf("count = %d, records = %d", got.Count, len(got.Records))
	}
	if got.UnitNs != tr.UnitNs || got.Scenario != tr.Scenario {
		t.Fatalf("header provenance lost: %+v", got.Header)
	}
	if !reflect.DeepEqual(normalizeTrace(tr), normalizeTrace(got)) {
		t.Fatal("binary round trip diverged")
	}
}

// TestBinaryWriterBlocks checks the streaming writer's block framing:
// records-per-block bound, index entries covering the whole record
// range with correct timestamp bounds, and byte offsets that actually
// frame blocks (via decodeBlockAt).
func TestBinaryWriterBlocks(t *testing.T) {
	tr := synthTrace(100)
	path := filepath.Join(t.TempDir(), "blocks.btrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := NewWriter(f, tr.Header, BinaryWriterOptions{BlockRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		if err := bw.WriteRecord(&tr.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if bw.Count() != 100 {
		t.Fatalf("writer count = %d", bw.Count())
	}
	idx := bw.Index()
	if want := (100 + 15) / 16; len(idx) != want {
		t.Fatalf("blocks = %d, want %d", len(idx), want)
	}
	next := 0
	for i, e := range idx {
		if e.FirstRecord != next {
			t.Fatalf("block %d first record = %d, want %d", i, e.FirstRecord, next)
		}
		if e.Records <= 0 || e.Records > 16 {
			t.Fatalf("block %d records = %d", i, e.Records)
		}
		lo, hi := tr.Records[e.FirstRecord].StartNs, tr.Records[e.FirstRecord+e.Records-1].StartNs
		if e.MinStartNs != lo || e.MaxStartNs != hi {
			t.Fatalf("block %d time bounds = [%d,%d], want [%d,%d]",
				i, e.MinStartNs, e.MaxStartNs, lo, hi)
		}
		next += e.Records
	}
	if next != 100 {
		t.Fatalf("index covers %d records", next)
	}

	// The footer on disk reproduces the writer's index.
	h, gotIdx, err := ReadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 100 || h.Scenario != "synth" {
		t.Fatalf("indexed header = %+v", h)
	}
	if !reflect.DeepEqual(idx, gotIdx) {
		t.Fatalf("footer index diverged:\nwriter %+v\nfooter %+v", idx, gotIdx)
	}

	// Each indexed offset frames a decodable block with the promised
	// records.
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	for i, e := range gotIdx {
		recs, err := decodeBlockAt(rf, e, nil)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		want := tr.Records[e.FirstRecord : e.FirstRecord+e.Records]
		if !reflect.DeepEqual(recs, want) {
			t.Fatalf("block %d records diverged", i)
		}
	}
}

// TestBinaryCompressionChoice checks that the per-block DEFLATE
// attempt only sticks when it shrinks the block, and that NoCompress
// streams still decode.
func TestBinaryCompressionChoice(t *testing.T) {
	tr := synthTrace(2000)
	var plain, packed bytes.Buffer
	bw, err := NewWriter(&plain, tr.Header, BinaryWriterOptions{NoCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		if err := bw.WriteRecord(&tr.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&packed, tr); err != nil {
		t.Fatal(err)
	}
	if packed.Len() >= plain.Len() {
		t.Fatalf("compressed container %d bytes, uncompressed %d", packed.Len(), plain.Len())
	}
	for name, buf := range map[string]*bytes.Buffer{"plain": &plain, "packed": &packed} {
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(normalizeTrace(tr), normalizeTrace(got)) {
			t.Fatalf("%s container diverged", name)
		}
	}
}

// TestBinaryStreamingReader drives the RecordReader interface
// directly: the header is available before any record, records come
// back in order, and io.EOF arrives only after footer validation.
func TestBinaryStreamingReader(t *testing.T) {
	tr := synthTrace(50)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	rr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if rr.Header().Scenario != "synth" {
		t.Fatalf("streamed header = %+v", rr.Header())
	}
	var rec Record
	for i := 0; ; i++ {
		err := rr.Next(&rec)
		if err == io.EOF {
			if i != 50 {
				t.Fatalf("EOF after %d records", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.StartNs != tr.Records[i].StartNs {
			t.Fatalf("record %d start = %d, want %d", i, rec.StartNs, tr.Records[i].StartNs)
		}
	}
	// After EOF the footer count has been folded into the header.
	if rr.Header().Count != 50 {
		t.Fatalf("post-EOF header count = %d", rr.Header().Count)
	}
}

// writeJSONL writes tr as a JSONL file at path (the read-only format,
// rendered by encodeJSONL).
func writeJSONL(t *testing.T, path string, tr *Trace) {
	t.Helper()
	if err := os.WriteFile(path, encodeJSONL(tr), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestConvertBothDirections converts a trace JSONL → binary via the
// streaming Convert path, then binary → binary, and checks semantic
// identity plus binary re-encode byte stability.
func TestConvertBothDirections(t *testing.T) {
	tr := synthTrace(300)
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "a.trace")
	btr := filepath.Join(dir, "b.btrace")
	btr2 := filepath.Join(dir, "c.btrace")
	writeJSONL(t, jsonl, tr)
	for _, hop := range [][2]string{{jsonl, btr}, {btr, btr2}} {
		n, err := Convert(hop[0], hop[1])
		if err != nil {
			t.Fatalf("%s -> %s: %v", hop[0], hop[1], err)
		}
		if n != 300 {
			t.Fatalf("%s -> %s converted %d records", hop[0], hop[1], n)
		}
	}
	back, err := Load(btr2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeTrace(tr), normalizeTrace(back)) {
		t.Fatal("JSONL -> binary -> binary diverged")
	}
	// Re-encoding the same record stream must be byte-stable.
	b1, err := os.ReadFile(btr)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(btr2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("binary re-encode not byte-stable: %d vs %d bytes", len(b1), len(b2))
	}
}

// TestConvertTruncatedLeavesNoFile pins Convert's failure contract: a
// JSONL source whose header promises more records than it holds fails
// as truncated, and the destination is removed — never sealed into a
// shorter trace that loads as valid.
func TestConvertTruncatedLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "short.trace")
	dst := filepath.Join(dir, "short.btrace")
	raw := bytes.Replace(encodeJSONL(synthTrace(10)), []byte(`"records":10`), []byte(`"records":12`), 1)
	if err := os.WriteFile(src, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Convert(src, dst); err == nil || !strings.Contains(err.Error(), "truncated stream") {
		t.Fatalf("Convert of a truncated source: err = %v, want truncated stream", err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("failed Convert left %s behind (stat err %v)", dst, err)
	}
	if tr, err := Load(dst); err == nil {
		t.Fatalf("failed Convert's destination loads with %d records", len(tr.Records))
	}
}

// TestWriteOnlyBinary pins the write contract: Create, Save and
// Convert write only the binary container, and a destination without
// BinaryExt is an error naming it, with no file created.
func TestWriteOnlyBinary(t *testing.T) {
	tr := synthTrace(5)
	dir := t.TempDir()
	src := filepath.Join(dir, "src.btrace")
	if err := Save(src, tr); err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(string) error{
		"Create": func(p string) error {
			w, err := Create(p, tr.Header)
			if err == nil {
				w.Close()
			}
			return err
		},
		"Save":    func(p string) error { return Save(p, tr) },
		"Convert": func(p string) error { _, err := Convert(src, p); return err },
	} {
		path := filepath.Join(dir, strings.ToLower(name)+".trace")
		if err := write(path); err == nil || !strings.Contains(err.Error(), BinaryExt) {
			t.Errorf("%s(%s): err = %v, want one naming %s", name, path, err, BinaryExt)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s(%s) created a file (stat err %v)", name, path, err)
		}
	}
}

// TestLoadAutoDetect checks that Load dispatches on content, not
// extension: a binary container under a .trace name and a JSONL
// stream under .btrace both load.
func TestLoadAutoDetect(t *testing.T) {
	tr := synthTrace(25)
	dir := t.TempDir()
	lying1 := filepath.Join(dir, "binary-inside.trace")
	f, err := os.Create(lying1)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	lying2 := filepath.Join(dir, "jsonl-inside.btrace")
	writeJSONL(t, lying2, tr)
	for _, p := range []string{lying1, lying2} {
		got, err := Load(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !reflect.DeepEqual(normalizeTrace(tr), normalizeTrace(got)) {
			t.Fatalf("%s: auto-detected load diverged", p)
		}
	}
}

// TestCreateStreamsBothFormats drives the streaming Create path: the
// binary writer's footer carries the count the header left at zero,
// and the file loads identically. TestWriteOnlyBinary pins Create's
// refusal of any other extension.
func TestCreateStreamsBothFormats(t *testing.T) {
	tr := synthTrace(40)
	path := filepath.Join(t.TempDir(), "s.btrace")
	h := tr.Header
	h.Count = 0 // streaming writers must not need the count up front
	w, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		if err := w.WriteRecord(&tr.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 40 {
		t.Fatalf("loaded count = %d", got.Count)
	}
	if !reflect.DeepEqual(normalizeTrace(tr), normalizeTrace(got)) {
		t.Fatal("streamed write diverged")
	}
}

// TestLoadSampleBinary checks the index-driven sampling path: an
// over-budget binary trace comes back as evenly spaced whole blocks,
// Sampled records the original total, and a within-budget trace loads
// in full.
func TestLoadSampleBinary(t *testing.T) {
	tr := synthTrace(400)
	path := filepath.Join(t.TempDir(), "s.btrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := NewWriter(f, tr.Header, BinaryWriterOptions{BlockRecords: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		if err := bw.WriteRecord(&tr.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := LoadSample(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampled != 400 {
		t.Fatalf("Sampled = %d, want 400", got.Sampled)
	}
	if got.Count != len(got.Records) || len(got.Records) == 0 || len(got.Records) > 120 {
		t.Fatalf("sample = %d records (count %d)", len(got.Records), got.Count)
	}
	// Sampled records must be a subsequence of the original: whole
	// blocks, so runs of 20 with matching content.
	byStart := map[int64]Record{}
	for _, r := range tr.Records {
		byStart[r.StartNs] = r
	}
	for i, r := range got.Records {
		want, ok := byStart[r.StartNs]
		if !ok || !reflect.DeepEqual(normalizeTrace(&Trace{Records: []Record{r}}),
			normalizeTrace(&Trace{Records: []Record{want}})) {
			t.Fatalf("sampled record %d not in the original trace: %+v", i, r)
		}
	}

	full, err := LoadSample(path, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if full.Sampled != 0 || len(full.Records) != 400 {
		t.Fatalf("within-budget sample = %d records, Sampled %d", len(full.Records), full.Sampled)
	}
}

// TestLoadSampleJSONL checks LoadSample on the unindexed format: a
// JSONL trace within budget loads whole, and one over budget is an
// error that points at stmbench -convert instead of a full-file scan.
func TestLoadSampleJSONL(t *testing.T) {
	tr := synthTrace(200)
	path := filepath.Join(t.TempDir(), "s.trace")
	writeJSONL(t, path, tr)
	if _, err := LoadSample(path, 50); err == nil || !strings.Contains(err.Error(), "stmbench -convert") {
		t.Fatalf("over-budget JSONL sample: err = %v, want one naming stmbench -convert", err)
	}
	got, err := LoadSample(path, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampled != 0 || !reflect.DeepEqual(normalizeTrace(tr), normalizeTrace(got)) {
		t.Fatalf("within-budget JSONL sample = %d records, Sampled %d", len(got.Records), got.Sampled)
	}
}

// TestBinaryCorruptionRejected flips bytes in every structural region
// — block payload, CRC, footer, trailer, magic — and requires a
// telling error, never a silent partial load.
func TestBinaryCorruptionRejected(t *testing.T) {
	tr := synthTrace(100)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	reject := func(name string, data []byte, wantErr string) {
		t.Helper()
		_, err := ReadBinary(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: err = %v, want %q", name, err, wantErr)
		}
	}
	flip := func(i int) []byte {
		c := append([]byte(nil), valid...)
		c[i] ^= 0xff
		return c
	}

	newer := append([]byte(nil), valid...)
	copy(newer, "txcbtr99")
	reject("newer container", newer, "unsupported binary container version")

	alien := append([]byte(nil), valid...)
	copy(alien, "notatrcf")
	reject("alien magic", alien, "not a txconflict-trace binary trace")

	// A byte inside the block frame (the footer + trailer take the
	// last ~30 bytes; well before that is block payload or the block's
	// own CRC — either way the CRC check catches the flip).
	reject("payload bit flip", flip(len(valid)-60), "crc mismatch")
	// Flipping inside the footer body breaks the footer CRC.
	reject("footer bit flip", flip(len(valid)-24), "footer crc mismatch")
	reject("trailer magic", flip(len(valid)-1), "bad trailer magic")
	reject("truncated mid-block", valid[:len(valid)/2], "trace:")
	// The trailer locates the footer; cut the file right there so the
	// blocks are intact but the footer never arrives.
	footerOff := int(binary.LittleEndian.Uint64(valid[len(valid)-16:]))
	reject("no footer", valid[:footerOff], "truncated binary stream")

	// A lying block count must be rejected before allocation. Build a
	// hand-framed block claiming 2^40 records in 3 payload bytes.
	var lying []byte
	lying = append(lying, BinaryMagic...)
	hdr := fmt.Sprintf(`{"format":%q,"version":1}`, FormatName)
	lying = append(lying, byte(len(hdr)))
	lying = append(lying, hdr...)
	lying = append(lying, blockTag, 0)
	lying = append(lying, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40) // count = 2^40
	lying = append(lying, 3, 3, 1, 2, 3, 0, 0, 0, 0)
	reject("lying block count", lying, "impossible for")

	// Oversized declared block: rejected before the 64 MiB allocation.
	var huge []byte
	huge = append(huge, BinaryMagic...)
	huge = append(huge, byte(len(hdr)))
	huge = append(huge, hdr...)
	huge = append(huge, blockTag, 0, 1)
	huge = append(huge, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40) // huge rawLen
	huge = append(huge, 1)                                  // storedLen
	reject("oversized block", huge, "exceeds")
}

// TestRecorderSnapshotSavesCalibration checks a recording's path to
// disk: Snapshot → Save(.btrace) → Load keeps every record and the
// UnitNs calibration stamped on the recorder.
func TestRecorderSnapshotSavesCalibration(t *testing.T) {
	sc, err := scenario.ByName("hotspot", scenario.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := stm.DefaultConfig()
	rec := NewRecorder("hotspot", 2, cfg.String())
	rec.SetUnitNs(3)
	cfg.Trace = rec
	rn := scenario.NewSTMRunner(sc, cfg)
	if res := rn.Drive(2, 20*time.Millisecond, 7); res.Ops() == 0 {
		t.Fatal("no transactions recorded")
	}
	want := rec.Snapshot()

	path := filepath.Join(t.TempDir(), "rec.btrace")
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.UnitNs != 3 {
		t.Fatalf("calibration lost on the way to disk: UnitNs = %v", got.UnitNs)
	}
	if !reflect.DeepEqual(normalizeTrace(want), normalizeTrace(got)) {
		t.Fatal("saved recording diverged from Snapshot")
	}
}
