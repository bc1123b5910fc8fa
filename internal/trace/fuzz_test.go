package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedTrace is a small but structurally complete trace — a couple
// of workers, mixed outcomes, footprints, annotations — that keeps
// the seed corpus non-empty on its own.
func fuzzSeedTrace() *Trace {
	return &Trace{
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
}

// fuzzLoadBody is the fuzz contract check: arbitrary bytes either fail
// Load with an error or produce a complete, re-serializable trace. Load
// is os.Open plus ReadBinary, so the bytes go to ReadBinary straight
// from memory: a file round trip per input would cost more than the
// decode it feeds.
func fuzzLoadBody(t *testing.T, data []byte) {
	tr, err := ReadBinary(bytes.NewReader(data))
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

// encodeSeed is tr in the block-framed container.
func encodeSeed(tr *Trace) []byte {
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
	valid := encodeSeed(fuzzSeedTrace())
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
	// A length replay cannot turn into simulated time (WriteBinary
	// does not validate; Load must).
	negative := fuzzSeedTrace()
	negative.Records[0].Compute = -1
	f.Add(encodeSeed(negative))
	// A run-sized trace, built in memory: a few hundred records, enough
	// for a DEFLATE-compressed block and few enough that every input
	// mutated from it decodes fast, so a fuzz run spends its budget on
	// mutations. And the golden fixture, to anchor the corpus to a real
	// v1 file.
	f.Add(encodeSeed(synthTrace(300)))
	if g, err := os.ReadFile(filepath.Join("testdata", "golden-v1.btrace")); err == nil {
		f.Add(g)
	}

	f.Fuzz(fuzzLoadBody)
}
