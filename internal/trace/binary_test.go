package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
// nil and empty footprints are the same record (the decoder returns an
// empty footprint as nil), and the mutable accounting fields the
// pipeline stamps (Count, Sampled) are cleared.
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
// blocks close at DefaultBlockRecords, the index entries cover the
// whole record range with correct timestamp bounds, and the byte
// offsets actually frame blocks (via decodeBlockAt).
func TestBinaryWriterBlocks(t *testing.T) {
	n := 2*DefaultBlockRecords + 100
	tr := synthTrace(n)
	path := filepath.Join(t.TempDir(), "blocks.btrace")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	h, idx, total, err := readIndexFile(rf)
	if err != nil {
		t.Fatal(err)
	}
	if total != n || h.Count != n || h.Scenario != "synth" {
		t.Fatalf("indexed header = %+v, total %d", h, total)
	}
	if len(idx) != 3 {
		t.Fatalf("blocks = %d, want 3", len(idx))
	}
	next := 0
	for i, e := range idx {
		if e.FirstRecord != next {
			t.Fatalf("block %d first record = %d, want %d", i, e.FirstRecord, next)
		}
		if want := min(DefaultBlockRecords, n-next); e.Records != want {
			t.Fatalf("block %d records = %d, want %d", i, e.Records, want)
		}
		lo, hi := tr.Records[e.FirstRecord].StartNs, tr.Records[e.FirstRecord+e.Records-1].StartNs
		if e.MinStartNs != lo || e.MaxStartNs != hi {
			t.Fatalf("block %d time bounds = [%d,%d], want [%d,%d]",
				i, e.MinStartNs, e.MaxStartNs, lo, hi)
		}
		next += e.Records
	}

	// Each indexed offset frames a decodable block with the promised
	// records.
	for i, e := range idx {
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

// blockFlags saves tr and returns each block's flags byte, located
// through the index footer.
func blockFlags(t *testing.T, tr *Trace) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flags.btrace")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, idx, _, err := readIndexFile(f)
	if err != nil {
		t.Fatal(err)
	}
	flags := make([]byte, len(idx))
	for i, e := range idx {
		if _, err := f.ReadAt(flags[i:i+1], e.Offset+1); err != nil {
			t.Fatal(err)
		}
	}
	return flags
}

// TestBinaryCompressionChoice checks that the per-block DEFLATE
// attempt only sticks when it shrinks the block: a compressible trace
// stores DEFLATE blocks, a one-record block DEFLATE cannot shrink is
// stored raw, and both decode.
func TestBinaryCompressionChoice(t *testing.T) {
	packed := synthTrace(2000)
	one := synthTrace(1)
	for name, c := range map[string]struct {
		tr   *Trace
		flag byte
	}{
		"compressible": {packed, blockFlagCompressed},
		"one record":   {one, 0},
	} {
		flags := blockFlags(t, c.tr)
		if len(flags) == 0 {
			t.Fatalf("%s: no blocks", name)
		}
		for i, fl := range flags {
			if fl != c.flag {
				t.Fatalf("%s: block %d flags = %#x, want %#x", name, i, fl, c.flag)
			}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, c.tr); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(normalizeTrace(c.tr), normalizeTrace(got)) {
			t.Fatalf("%s container diverged", name)
		}
	}
}

// TestBinaryStreamingReader drives the streaming block reader
// directly: the header is available before any record, records come
// back in order, and io.EOF arrives only after footer validation.
func TestBinaryStreamingReader(t *testing.T) {
	tr := synthTrace(50)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	br, err := newBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if br.h.Scenario != "synth" {
		t.Fatalf("streamed header = %+v", br.h)
	}
	var rec Record
	for i := 0; ; i++ {
		err := br.Next(&rec)
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
	if br.h.Count != 50 {
		t.Fatalf("post-EOF header count = %d", br.h.Count)
	}
}

// TestWriteOnlyBinary pins the write contract: Create and Save write
// only the binary container, and a destination without BinaryExt is
// an error naming it, with no file created.
func TestWriteOnlyBinary(t *testing.T) {
	tr := synthTrace(5)
	dir := t.TempDir()
	for name, write := range map[string]func(string) error{
		"Create": func(p string) error {
			w, err := Create(p, tr.Header)
			if err == nil {
				w.Close()
			}
			return err
		},
		"Save": func(p string) error { return Save(p, tr) },
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

// TestLoadAutoDetect checks that Load decides by content, not by
// name: a binary container under a .trace name loads, and
// line-per-record JSON text under .btrace is refused.
func TestLoadAutoDetect(t *testing.T) {
	tr := synthTrace(25)
	dir := t.TempDir()
	binaryInside := filepath.Join(dir, "binary-inside.trace")
	f, err := os.Create(binaryInside)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := Load(binaryInside)
	if err != nil {
		t.Fatalf("%s: %v", binaryInside, err)
	}
	if !reflect.DeepEqual(normalizeTrace(tr), normalizeTrace(got)) {
		t.Fatalf("%s: load diverged", binaryInside)
	}

	jsonlInside := filepath.Join(dir, "jsonl-inside.btrace")
	jsonl := `{"format":"txconflict-trace","version":1,"scenario":"synth","workers":4,"records":1}` + "\n" +
		`{"w":0,"t":0,"d":1200,"c":true}` + "\n"
	if err := os.WriteFile(jsonlInside, []byte(jsonl), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(jsonlInside); err == nil || !strings.Contains(err.Error(), "not a txconflict-trace binary trace") {
		t.Fatalf("%s: err = %v, want it refused as not a binary trace", jsonlInside, err)
	}
}

// TestCreateStreamsBothFormats drives the streaming Create path: the
// binary writer's footer carries the count the header left at zero,
// and the file loads identically. A Create writer whose trace cannot
// be sealed removes its file. TestWriteOnlyBinary pins Create's
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

	// The file going away under the writer fails the seal, and the
	// half-written trace is removed rather than left behind.
	broken := filepath.Join(t.TempDir(), "broken.btrace")
	w, err = Create(broken, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(&tr.Records[0]); err != nil {
		t.Fatal(err)
	}
	w.file.Close()
	if err := w.Close(); err == nil {
		t.Fatal("Close sealed a trace into a closed file")
	}
	if _, err := os.Stat(broken); !os.IsNotExist(err) {
		t.Fatalf("failed Close left %s behind (stat err %v)", broken, err)
	}
}

// TestLoadSampleBinary checks the index-driven sampling path: an
// over-budget trace comes back as evenly spaced whole blocks, Sampled
// records the original total, and a within-budget trace loads in
// full.
func TestLoadSampleBinary(t *testing.T) {
	n := 4 * DefaultBlockRecords
	tr := synthTrace(n)
	path := filepath.Join(t.TempDir(), "s.btrace")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}

	got, err := LoadSample(path, 2*DefaultBlockRecords)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampled != n {
		t.Fatalf("Sampled = %d, want %d", got.Sampled, n)
	}
	if got.Count != len(got.Records) || len(got.Records) != 2*DefaultBlockRecords {
		t.Fatalf("sample = %d records (count %d), want two whole blocks", len(got.Records), got.Count)
	}
	// Blocks 0 and 2 of 4: evenly spaced, not the first two.
	if a, b := got.Records[0].StartNs, got.Records[DefaultBlockRecords].StartNs; a != tr.Records[0].StartNs ||
		b != tr.Records[2*DefaultBlockRecords].StartNs {
		t.Fatalf("sampled blocks start at %d and %d", a, b)
	}
	// Sampled records must be a subsequence of the original.
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

	full, err := LoadSample(path, n)
	if err != nil {
		t.Fatal(err)
	}
	if full.Sampled != 0 || len(full.Records) != n {
		t.Fatalf("within-budget sample = %d records, Sampled %d", len(full.Records), full.Sampled)
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

	// Lengths replay cannot turn into simulated time: WriteBinary
	// writes them as given, and the reader refuses them.
	for _, c := range []struct {
		name  string
		apply func(*Record)
	}{
		{"negative compute", func(r *Record) { r.Compute = -1 }},
		{"NaN compute", func(r *Record) { r.Compute = math.NaN() }},
		{"infinite compute", func(r *Record) { r.Compute = math.Inf(1) }},
		{"negative think", func(r *Record) { r.Think = -0.5 }},
		{"NaN think", func(r *Record) { r.Think = math.NaN() }},
		{"infinite think", func(r *Record) { r.Think = math.Inf(-1) }},
	} {
		bad := synthTrace(10)
		c.apply(&bad.Records[7])
		var bbuf bytes.Buffer
		if err := WriteBinary(&bbuf, bad); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		reject(c.name, bbuf.Bytes(), "not a finite non-negative number")
	}

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
