package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// encodeJSONL renders tr in the read-only JSONL format — a header
// line, then one json.Marshal'd record per line — with the header's
// format, version and record count stamped from the data. It is the
// reference input the JSONL reader, Convert and the fuzz seeds are
// checked on; the package itself writes only the binary container.
func encodeJSONL(tr *Trace) []byte {
	h := tr.Header
	h.Format, h.Version, h.Count = FormatName, FormatVersion, len(tr.Records)
	out, err := json.Marshal(&h)
	if err != nil {
		panic(err)
	}
	out = append(out, '\n')
	for i := range tr.Records {
		line, err := json.Marshal(&tr.Records[i])
		if err != nil {
			panic(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// randomTrace draws a structurally valid but adversarial trace:
// unsorted footprints (forcing the raw index encoding), empty and
// long footprints, negative and huge workers, fold counters, floats
// with full mantissas, extreme timestamps — everything the format
// claims to carry.
func randomTrace(rng *rand.Rand) *Trace {
	tr := &Trace{
		Header: Header{
			Scenario:       "prop",
			Workers:        1 + rng.Intn(16),
			Config:         "roundtrip-property",
			CapturedUnixNs: rng.Int63(),
		},
	}
	if rng.Intn(2) == 0 {
		tr.UnitNs = rng.Float64() * 10
	}
	n := rng.Intn(300)
	start := int64(0)
	for i := 0; i < n; i++ {
		// Timestamps mostly march forward (the recorder merges by
		// StartNs) but with occasional large jumps and repeats.
		switch rng.Intn(10) {
		case 0:
			start += rng.Int63n(1 << 40)
		case 1: // repeat
		default:
			start += rng.Int63n(5000)
		}
		r := Record{
			Worker:        int32(rng.Intn(20) - 2),
			StartNs:       start,
			DurNs:         rng.Int63n(1 << 50),
			GraceNs:       rng.Int63n(1 << 30),
			Retries:       uint32(rng.Intn(1000)),
			KillsSuffered: uint32(rng.Intn(10)),
			KillsIssued:   uint32(rng.Intn(10)),
			Ops:           uint32(rng.Intn(100)),
			FoldedWrites:  uint32(rng.Intn(50)),
			Committed:     rng.Intn(3) != 0,
			Irrevocable:   rng.Intn(20) == 0,
			Compute:       rng.Float64() * 1e6,
			Think:         float64(rng.Intn(100)),
			Reads:         randomFootprint(rng),
			Writes:        randomFootprint(rng),
		}
		if rng.Intn(10) == 0 {
			r.Compute = math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // subnormal-ish, full mantissa
		}
		tr.Records = append(tr.Records, r)
	}
	tr.Count = len(tr.Records)
	return tr
}

func randomFootprint(rng *rand.Rand) []uint32 {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1: // long sorted footprint: the delta-coded path
		n := 1 + rng.Intn(64)
		xs := make([]uint32, n)
		x := rng.Uint32() % 1000
		for i := range xs {
			xs[i] = x
			x += rng.Uint32() % 100
		}
		return xs
	case 2: // unsorted: forces the raw encoding
		n := 2 + rng.Intn(16)
		xs := make([]uint32, n)
		for i := range xs {
			xs[i] = rng.Uint32()
		}
		return xs
	case 3: // boundary values
		return []uint32{math.MaxUint32, 0, math.MaxUint32 - 1}
	default:
		return []uint32{rng.Uint32() % 4096}
	}
}

// TestRoundTripProperty is the cross-format property test: for random
// traces, JSONL → binary → JSONL preserves every record semantically,
// and re-encoding the binary form is byte-stable. Runs under -race in
// CI's race-short lane.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	iters := 50
	if testing.Short() {
		iters = 10
	}
	for it := 0; it < iters; it++ {
		tr := randomTrace(rng)

		// JSONL decode.
		fromJSONL, err := Read(bytes.NewReader(encodeJSONL(tr)))
		if err != nil {
			t.Fatalf("iter %d: jsonl decode: %v", it, err)
		}

		// Binary encode/decode of the JSONL-loaded trace.
		var bbuf bytes.Buffer
		if err := WriteBinary(&bbuf, fromJSONL); err != nil {
			t.Fatalf("iter %d: binary encode: %v", it, err)
		}
		fromBinary, err := ReadBinary(bytes.NewReader(bbuf.Bytes()))
		if err != nil {
			t.Fatalf("iter %d: binary decode: %v", it, err)
		}

		// Back to JSONL: the full cross-format loop.
		back, err := Read(bytes.NewReader(encodeJSONL(fromBinary)))
		if err != nil {
			t.Fatalf("iter %d: jsonl re-decode: %v", it, err)
		}

		want := normalizeTrace(tr)
		for step, got := range map[string]*Trace{
			"jsonl": fromJSONL, "binary": fromBinary, "jsonl-again": back,
		} {
			if !reflect.DeepEqual(want, normalizeTrace(got)) {
				t.Fatalf("iter %d: %s round trip diverged (records %d)", it, step, len(tr.Records))
			}
		}

		// Binary re-encode must be byte-identical: same records, same
		// block framing, same footer.
		var bbuf2 bytes.Buffer
		if err := WriteBinary(&bbuf2, fromBinary); err != nil {
			t.Fatalf("iter %d: binary re-encode: %v", it, err)
		}
		if !bytes.Equal(bbuf.Bytes(), bbuf2.Bytes()) {
			t.Fatalf("iter %d: binary re-encode not byte-stable: %d vs %d bytes",
				it, bbuf.Len(), bbuf2.Len())
		}
	}
}

// TestRoundTripEmpty pins the degenerate cases: a record-free trace
// and single-record traces survive both formats.
func TestRoundTripEmpty(t *testing.T) {
	for _, tr := range []*Trace{
		{Header: Header{Scenario: "empty", Workers: 1}},
		{Header: Header{Scenario: "one", Workers: 1},
			Records: []Record{{Worker: 0, StartNs: 0}}},
		{Header: Header{Scenario: "neg", Workers: 1},
			Records: []Record{{Worker: -1, StartNs: math.MaxInt64 / 2, Committed: true}}},
	} {
		var bbuf bytes.Buffer
		if err := WriteBinary(&bbuf, tr); err != nil {
			t.Fatalf("%s: %v", tr.Scenario, err)
		}
		got, err := ReadBinary(bytes.NewReader(bbuf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", tr.Scenario, err)
		}
		if !reflect.DeepEqual(normalizeTrace(tr), normalizeTrace(got)) {
			t.Fatalf("%s: binary round trip diverged", tr.Scenario)
		}
		got, err = Read(bytes.NewReader(encodeJSONL(tr)))
		if err != nil {
			t.Fatalf("%s: %v", tr.Scenario, err)
		}
		if !reflect.DeepEqual(normalizeTrace(tr), normalizeTrace(got)) {
			t.Fatalf("%s: jsonl round trip diverged", tr.Scenario)
		}
	}
}
