package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestGoldenFixtures pins the v1 on-disk formats forever: the
// checked-in JSONL and binary fixtures must keep loading, with every
// field intact, in every future build. If either of these tests
// breaks, the format changed incompatibly — bump the version and keep
// reading v1 instead of editing the fixtures.
func TestGoldenFixtures(t *testing.T) {
	jsonl, err := Load(filepath.Join("testdata", "golden-v1.trace"))
	if err != nil {
		t.Fatalf("golden JSONL no longer loads: %v", err)
	}
	binary, err := Load(filepath.Join("testdata", "golden-v1.btrace"))
	if err != nil {
		t.Fatalf("golden binary no longer loads: %v", err)
	}
	for name, tr := range map[string]*Trace{"jsonl": jsonl, "binary": binary} {
		if tr.Scenario != "golden" || tr.Workers != 2 || tr.Version != 1 {
			t.Fatalf("%s: header = %+v", name, tr.Header)
		}
		if tr.Config != "requestor-wins/RRW/lazy/b4" || tr.CapturedUnixNs != 1700000000000000000 {
			t.Fatalf("%s: provenance = %+v", name, tr.Header)
		}
		if tr.UnitNs != 1.25 {
			t.Fatalf("%s: calibration = %v", name, tr.UnitNs)
		}
		if tr.Count != 5 || len(tr.Records) != 5 {
			t.Fatalf("%s: %d records, count %d", name, len(tr.Records), tr.Count)
		}
	}
	if !reflect.DeepEqual(normalizeTrace(jsonl), normalizeTrace(binary)) {
		t.Fatal("golden JSONL and binary fixtures diverged")
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
	if !reflect.DeepEqual(jsonl.Records, want) {
		t.Fatalf("golden records drifted:\ngot  %+v\nwant %+v", jsonl.Records, want)
	}
}

// TestGoldenConvert pins Convert against both fixtures at once:
// streaming the JSONL golden into the binary container reproduces the
// binary golden byte for byte.
func TestGoldenConvert(t *testing.T) {
	dst := filepath.Join(t.TempDir(), "golden.btrace")
	if n, err := Convert(filepath.Join("testdata", "golden-v1.trace"), dst); err != nil || n != 5 {
		t.Fatalf("Convert(golden-v1.trace) = %d records, %v", n, err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden-v1.btrace"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("converted JSONL golden (%d bytes) differs from golden-v1.btrace (%d bytes)", len(got), len(want))
	}
}

// TestGoldenRejections pins the rejection behaviour for future and
// hostile files, derived from the goldens so the corruptions stay
// realistic.
func TestGoldenRejections(t *testing.T) {
	rawJSONL, err := os.ReadFile(filepath.Join("testdata", "golden-v1.trace"))
	if err != nil {
		t.Fatal(err)
	}
	rawBinary, err := os.ReadFile(filepath.Join("testdata", "golden-v1.btrace"))
	if err != nil {
		t.Fatal(err)
	}
	reject := func(name string, data []byte, wantErr string) {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: err = %v, want %q", name, err, wantErr)
		}
	}

	// A version-2 writer's output must be refused, not misread.
	reject("newer.trace",
		bytes.Replace(rawJSONL, []byte(`"version":1`), []byte(`"version":2`), 1),
		"unsupported format version")
	reject("newer-header.btrace",
		bytes.Replace(rawBinary, []byte(`"version":1`), []byte(`"version":2`), 1),
		"unsupported format version")
	newerContainer := append([]byte(nil), rawBinary...)
	copy(newerContainer, "txcbtr02")
	reject("newer-container.btrace", newerContainer, "unsupported binary container version")

	// Alien files.
	alien := append([]byte(nil), rawBinary...)
	copy(alien, "PK\x03\x04zip!")
	reject("alien.btrace", alien, "unrecognized trace format")
	reject("alien.trace", []byte(`{"format":"something-else","version":1}`+"\n"),
		"not a txconflict-trace")

	// A lying record count must fail as truncation, and a huge count
	// must not commit the loader to a huge allocation (bounded
	// preallocation: this returns promptly instead of OOMing).
	reject("lying-count.trace",
		bytes.Replace(rawJSONL, []byte(`"records":5`), []byte(`"records":9`), 1),
		"truncated stream")
	reject("huge-count.trace",
		bytes.Replace(rawJSONL, []byte(`"records":5`), []byte(`"records":2000000000`), 1),
		"truncated stream")

	// Binary: truncation anywhere loses the footer and is refused.
	reject("truncated.btrace", rawBinary[:len(rawBinary)-20], "trace:")
}
