package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedTrace builds a small but structurally complete trace — a
// couple of workers, mixed outcomes, footprints, annotations — and
// returns its JSONL bytes. It keeps the seed corpus non-empty on its
// own; a real recorded run joins it via the frozen
// testdata/fuzz-seed.trace.
func fuzzSeedTrace() []byte {
	tr := &Trace{
		Header: Header{
			Scenario:       "hotspot",
			Workers:        2,
			Config:         "requestor-wins/RRW/lazy/b4",
			CapturedUnixNs: 1700000000000000000,
		},
		Records: []Record{
			{Worker: 0, StartNs: 10, DurNs: 900, Retries: 1, KillsSuffered: 1,
				Committed: true, Ops: 5, Compute: 60, Think: 10,
				Reads: []uint32{3, 9}, Writes: []uint32{0, 17}},
			{Worker: 1, StartNs: 40, DurNs: 300, GraceNs: 120, KillsIssued: 1,
				Committed: true, Ops: 5, Compute: 42, Think: 10,
				Writes: []uint32{2}},
			{Worker: -1, StartNs: 95, DurNs: 50, Committed: false, Irrevocable: true},
		},
	}
	return encodeJSONL(tr)
}

// FuzzLoad is the persistence-format fuzz harness: whatever bytes land
// on disk — truncated files, corrupt versions, bit flips inside a
// record line — Load must either return the trace with every record
// the header promises or fail with an error. It must never panic and
// never silently drop records (a short read that "succeeds" would
// poison every downstream profile and replay).
func FuzzLoad(f *testing.F) {
	valid := fuzzSeedTrace()
	f.Add(valid)
	// Truncations: drop the tail mid-record and mid-header.
	f.Add(valid[:len(valid)-20])
	f.Add(valid[:15])
	f.Add([]byte{})
	// Corrupt version / format.
	f.Add(bytes.Replace(valid, []byte(`"version":1`), []byte(`"version":99`), 1))
	f.Add(bytes.Replace(valid, []byte(FormatName), []byte("not-a-trace"), 1))
	// Count lies about the record lines.
	f.Add(bytes.Replace(valid, []byte(`"records":3`), []byte(`"records":7`), 1))
	// Bit flips in a record line and in the header.
	flip := func(b []byte, i int) []byte {
		c := append([]byte(nil), b...)
		c[i%len(c)] ^= 0x20
		return c
	}
	f.Add(flip(valid, 5))
	f.Add(flip(valid, len(valid)/2))
	f.Add(flip(valid, len(valid)-3))
	// Pathological inputs: no newline, huge count, raw JSON array.
	f.Add([]byte(`{"format":"txconflict-trace","version":1,"records":1000000}`))
	f.Add([]byte(`[1,2,3]`))
	// A real recorded run, frozen in JSONL.
	if demo, err := os.ReadFile(filepath.Join("testdata", "fuzz-seed.trace")); err == nil {
		f.Add(demo)
	}

	f.Fuzz(fuzzLoadBody)
}

// fuzzLoadBody is the shared contract check for both fuzz targets:
// arbitrary bytes either fail Load with an error or produce a
// complete, re-serializable trace. Load auto-detects the format, so
// the same body covers JSONL and binary inputs.
func fuzzLoadBody(t *testing.T, data []byte) {
	path := filepath.Join(t.TempDir(), "fuzz.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(path)
	if err != nil {
		return // rejecting corrupt input is the contract
	}
	// Accepted: the trace must be internally complete and
	// re-serializable.
	if len(tr.Records) != tr.Header.Count {
		t.Fatalf("accepted trace with %d records but header count %d",
			len(tr.Records), tr.Header.Count)
	}
	if tr.Header.Format != FormatName {
		t.Fatalf("accepted trace with format %q", tr.Header.Format)
	}
	if tr.Header.Version < 1 || tr.Header.Version > FormatVersion {
		t.Fatalf("accepted trace with version %d", tr.Header.Version)
	}
	rt, err := Read(bytes.NewReader(encodeJSONL(tr)))
	if err != nil {
		t.Fatalf("round trip of an accepted trace: %v", err)
	}
	if len(rt.Records) != len(tr.Records) {
		t.Fatalf("round trip dropped records: %d -> %d", len(tr.Records), len(rt.Records))
	}
	// And through the binary container: an accepted trace must survive
	// the compact encoding too.
	var bbuf bytes.Buffer
	if err := WriteBinary(&bbuf, tr); err != nil {
		t.Fatalf("binary-encoding an accepted trace: %v", err)
	}
	brt, err := ReadBinary(&bbuf)
	if err != nil {
		t.Fatalf("binary round trip of an accepted trace: %v", err)
	}
	if len(brt.Records) != len(tr.Records) {
		t.Fatalf("binary round trip dropped records: %d -> %d", len(tr.Records), len(brt.Records))
	}
}

// fuzzSeedBinary is the binary sibling of fuzzSeedTrace: the same
// structurally complete trace in the block-framed container.
func fuzzSeedBinary() []byte {
	tr, err := Read(bytes.NewReader(fuzzSeedTrace()))
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzLoadBinary hammers the binary container decode paths: block
// framing, CRCs, DEFLATE, varint record decoding, the index footer
// and the trailer. The seeds target each structural region — Load
// must reject every corruption cleanly (no panic, no OOM-sized
// allocation, no silent partial load).
func FuzzLoadBinary(f *testing.F) {
	valid := fuzzSeedBinary()
	f.Add(valid)
	// Truncations: mid-trailer, mid-footer, mid-block, mid-header.
	f.Add(valid[:len(valid)-8])
	f.Add(valid[:len(valid)-17])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(BinaryMagic)+2])
	f.Add([]byte(BinaryMagic))
	// Bit flips in each structural region: header JSON, block payload,
	// block CRC, footer body, trailer offset, tail magic.
	flip := func(i int) []byte {
		c := append([]byte(nil), valid...)
		c[(i%len(c)+len(c))%len(c)] ^= 0xff
		return c
	}
	f.Add(flip(len(BinaryMagic) + 3))
	f.Add(flip(len(valid) / 2))
	f.Add(flip(-30))
	f.Add(flip(-18))
	f.Add(flip(-12))
	f.Add(flip(-1))
	// Newer container and newer header versions.
	newer := append([]byte(nil), valid...)
	copy(newer, "txcbtr99")
	f.Add(newer)
	f.Add(bytes.Replace(valid, []byte(`"version":1`), []byte(`"version":9`), 1))
	// Lying block count and oversized declared lengths (the bounded-
	// allocation guards).
	hdr := `{"format":"txconflict-trace","version":1}`
	frame := func(tail ...byte) []byte {
		b := append([]byte(BinaryMagic), byte(len(hdr)))
		b = append(b, hdr...)
		return append(b, tail...)
	}
	f.Add(frame('B', 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 3, 3, 1, 2, 3, 0, 0, 0, 0))
	f.Add(frame('B', 0, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 1))
	f.Add(frame('I', 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add(frame('?', 0))
	// The golden fixture keeps the corpus anchored to a real v1 file,
	// and `make fuzz-trace` records a fresh run as fuzz-seed.btrace.
	for _, name := range []string{"golden-v1.btrace", "fuzz-seed.btrace"} {
		if g, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(g)
		}
	}

	f.Fuzz(fuzzLoadBody)
}
