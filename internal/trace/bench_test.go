package trace

import (
	"bytes"
	"testing"
	"time"

	"txconflict/internal/scenario"
	"txconflict/internal/stm"
)

// hotspotTrace records a real hotspot run on the STM runtime and
// tiles it to exactly n records (start times shifted per copy so the
// timeline keeps advancing) — the representative production capture
// for size and speed measurements.
func hotspotTrace(tb testing.TB, n int) *Trace {
	tb.Helper()
	sc, err := scenario.ByName("hotspot", scenario.Options{Workers: 4})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := stm.DefaultConfig()
	rec := NewRecorder("hotspot", 4, cfg.String())
	rec.SetUnitNs(1.3)
	cfg.Trace = rec
	rn := scenario.NewSTMRunner(sc, cfg)
	if res := rn.Drive(4, 30*time.Millisecond, 11); res.Ops() == 0 {
		tb.Fatal("no transactions recorded")
	}
	tr := rec.Snapshot()
	if len(tr.Records) == 0 {
		tb.Fatal("empty recording")
	}
	span := tr.SpanNs() + 1
	out := &Trace{Header: tr.Header}
	out.Records = make([]Record, 0, n)
	for tile := 0; len(out.Records) < n; tile++ {
		for i := range tr.Records {
			if len(out.Records) >= n {
				break
			}
			r := tr.Records[i]
			r.StartNs += int64(tile) * span
			out.Records = append(out.Records, r)
		}
	}
	out.Count = len(out.Records)
	return out
}

// TestBinarySizeRatio is the compression acceptance gate: on a
// 10k-record hotspot-shaped capture, the binary container must be at
// least 4x smaller than the JSONL encoding of the same records.
func TestBinarySizeRatio(t *testing.T) {
	tr := hotspotTrace(t, 10_000)
	jsonl := encodeJSONL(tr)
	var bbuf bytes.Buffer
	if err := WriteBinary(&bbuf, tr); err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(jsonl)) / float64(bbuf.Len())
	t.Logf("10k hotspot records: JSONL %d bytes (%.1f/rec), binary %d bytes (%.1f/rec), ratio %.2fx",
		len(jsonl), float64(len(jsonl))/10000, bbuf.Len(), float64(bbuf.Len())/10000, ratio)
	if ratio < 4 {
		t.Fatalf("binary container only %.2fx smaller than JSONL, want >= 4x", ratio)
	}
}

// BenchmarkTraceEncode measures per-record encode cost of the binary
// container (the one written format) over a 10k-record capture.
func BenchmarkTraceEncode(b *testing.B) {
	tr := hotspotTrace(b, 10_000)
	var buf bytes.Buffer
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := WriteBinary(&buf, tr); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Records)), "ns/record")
		b.ReportMetric(float64(buf.Len())/float64(len(tr.Records)), "bytes/record")
	})
}

// BenchmarkTraceDecode measures per-record decode cost on both
// formats.
func BenchmarkTraceDecode(b *testing.B) {
	tr := hotspotTrace(b, 10_000)
	jsonl := encodeJSONL(tr)
	var bbuf bytes.Buffer
	if err := WriteBinary(&bbuf, tr); err != nil {
		b.Fatal(err)
	}
	b.Run("jsonl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Read(bytes.NewReader(jsonl)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Records)), "ns/record")
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadBinary(bytes.NewReader(bbuf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Records)), "ns/record")
	})
}
