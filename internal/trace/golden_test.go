package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestGoldenFixtures pins the v1 on-disk format forever: the
// checked-in binary fixture must keep loading, with every field
// intact, in every future build. If this test breaks, the format
// changed incompatibly — bump the version and keep reading v1 instead
// of editing the fixture.
func TestGoldenFixtures(t *testing.T) {
	tr, err := Load(filepath.Join("testdata", "golden-v1.btrace"))
	if err != nil {
		t.Fatalf("golden binary no longer loads: %v", err)
	}
	if tr.Scenario != "golden" || tr.Workers != 2 || tr.Version != 1 {
		t.Fatalf("header = %+v", tr.Header)
	}
	if tr.Config != "requestor-wins/RRW/lazy/b4" || tr.CapturedUnixNs != 1700000000000000000 {
		t.Fatalf("provenance = %+v", tr.Header)
	}
	if tr.UnitNs != 1.25 {
		t.Fatalf("calibration = %v", tr.UnitNs)
	}
	if tr.Count != 5 || len(tr.Records) != 5 {
		t.Fatalf("%d records, count %d", len(tr.Records), tr.Count)
	}

	want := []Record{
		{Worker: 0, StartNs: 10, DurNs: 900, Retries: 1, KillsSuffered: 1,
			Committed: true, Ops: 5, Compute: 60, Think: 10,
			Reads: []uint32{3, 9}, Writes: []uint32{0, 17}},
		{Worker: 1, StartNs: 40, DurNs: 300, GraceNs: 120, KillsIssued: 1,
			Committed: true, Ops: 5, Compute: 42.5, Think: 10,
			Writes: []uint32{2}},
		{Worker: -1, StartNs: 95, DurNs: 50, Irrevocable: true},
		{Worker: 0, StartNs: 120, DurNs: 700, Committed: true, Ops: 3,
			Compute: 30, Think: 5, Reads: []uint32{7, 1, 4},
			Writes: []uint32{7}, FoldedWrites: 2},
		{Worker: 1, StartNs: 4294967296, DurNs: 1, Committed: true,
			Reads: []uint32{4294967295}},
	}
	if !reflect.DeepEqual(tr.Records, want) {
		t.Fatalf("golden records drifted:\ngot  %+v\nwant %+v", tr.Records, want)
	}
}

// withFooterTotal rewrites a sealed container's footer to promise
// total records, with a fresh footer CRC so only the count lies.
func withFooterTotal(raw []byte, total uint64) []byte {
	n := len(raw)
	footerOff := binary.LittleEndian.Uint64(raw[n-16 : n-8])
	_, old, err := parseFooterBody(raw[footerOff+1 : n-16-4])
	if err != nil {
		panic(err)
	}
	footer := append([]byte(nil), raw[footerOff:n-16-4-len(binary.AppendUvarint(nil, uint64(old)))]...)
	footer = binary.AppendUvarint(footer, total)
	footer = binary.LittleEndian.AppendUint32(footer, crc32.Checksum(footer, crcTable))
	out := append(append([]byte(nil), raw[:footerOff]...), footer...)
	out = binary.LittleEndian.AppendUint64(out, footerOff)
	return append(out, binaryTailMagic...)
}

// TestGoldenRejections pins the rejection behaviour for future and
// hostile files, derived from the golden so the corruptions stay
// realistic.
func TestGoldenRejections(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden-v1.btrace"))
	if err != nil {
		t.Fatal(err)
	}
	load := func(name string, data []byte) (*Trace, error) {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return Load(path)
	}
	reject := func(name string, data []byte, wantErr string) {
		t.Helper()
		if _, err := load(name, data); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: err = %v, want %q", name, err, wantErr)
		}
	}

	// A version-2 writer's output must be refused, not misread.
	reject("newer-header.btrace",
		bytes.Replace(raw, []byte(`"version":1`), []byte(`"version":2`), 1),
		"unsupported format version")
	newerContainer := append([]byte(nil), raw...)
	copy(newerContainer, "txcbtr02")
	reject("newer-container.btrace", newerContainer, "unsupported binary container version")

	// Alien files: another container, JSON text, a header naming
	// another format, nothing at all.
	alien := append([]byte(nil), raw...)
	copy(alien, "PK\x03\x04zip!")
	reject("alien.btrace", alien, "not a txconflict-trace binary trace")
	reject("alien.trace", []byte(`{"format":"something-else","version":1}`+"\n"),
		"not a txconflict-trace binary trace")
	reject("alien-header.btrace",
		bytes.Replace(raw, []byte(`"txconflict-trace"`), []byte(`"something-else!!"`), 1),
		"not a txconflict-trace stream")
	reject("empty.btrace", nil, "read binary magic")

	// A footer promising more records than the blocks hold fails as
	// truncation, however large the promise.
	reject("lying-count.btrace", withFooterTotal(raw, 9), "truncated stream")
	reject("huge-count.btrace", withFooterTotal(raw, 2000000000), "truncated stream")
	// The header's count is advisory: the footer's wins, and a huge
	// one does not commit the loader to a huge allocation.
	hlen, n := binary.Uvarint(raw[len(BinaryMagic):])
	hdrEnd := len(BinaryMagic) + n + int(hlen)
	hj := bytes.Replace(raw[len(BinaryMagic)+n:hdrEnd], []byte(`"records":5`), []byte(`"records":2000000000`), 1)
	huge := binary.AppendUvarint([]byte(BinaryMagic), uint64(len(hj)))
	huge = append(append(huge, hj...), raw[hdrEnd:]...)
	if tr, err := load("huge-header-count.btrace", huge); err != nil || tr.Count != 5 || len(tr.Records) != 5 {
		t.Errorf("huge header count: err = %v, want the footer's 5 records", err)
	}

	// Truncation anywhere loses the footer and is refused.
	reject("truncated.btrace", raw[:len(raw)-20], "trace:")
}
