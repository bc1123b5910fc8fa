package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// BinaryExt is the extension every written trace carries: Create,
// Save and Convert write only the block-framed binary container, and
// refuse any other destination before creating a file.
const BinaryExt = ".btrace"

// RecordReader streams records out of a persisted trace without
// materializing it: Next fills rec and returns io.EOF after the last
// record. Implementations validate the stream (format, version,
// CRCs, record count) as they go; a clean io.EOF means the whole
// trace was read and checked. Header is available immediately, but
// its Count is authoritative only for JSONL — the binary footer
// patches it once the stream completes.
type RecordReader interface {
	Header() *Header
	Next(rec *Record) error
	Close() error
}

// RecordWriter streams records into a persisted trace. Close seals
// the file (the binary index footer); dropping a writer without Close
// leaves a file every reader rejects.
type RecordWriter interface {
	WriteRecord(rec *Record) error
	Close() error
}

// jsonlReader streams the line-oriented JSONL format.
type jsonlReader struct {
	sc    *bufio.Scanner
	h     Header
	count int
	done  bool
}

// newJSONLReader parses the header line and positions the stream at
// the first record.
func newJSONLReader(r io.Reader) (*jsonlReader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: read header: %w", err)
		}
		return nil, fmt.Errorf("trace: empty stream")
	}
	var h Header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("trace: parse header: %w", err)
	}
	if h.Format != FormatName {
		return nil, fmt.Errorf("trace: not a %s stream (format %q)", FormatName, h.Format)
	}
	if h.Version < 1 || h.Version > FormatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d (this build reads <= %d)",
			h.Version, FormatVersion)
	}
	return &jsonlReader{sc: sc, h: h}, nil
}

func (r *jsonlReader) Header() *Header { return &r.h }

func (r *jsonlReader) Next(rec *Record) error {
	if r.done {
		return io.EOF
	}
	for r.sc.Scan() {
		line := r.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		*rec = Record{}
		if err := json.Unmarshal(line, rec); err != nil {
			return fmt.Errorf("trace: parse record %d: %w", r.count, err)
		}
		r.count++
		return nil
	}
	if err := r.sc.Err(); err != nil {
		return fmt.Errorf("trace: read records: %w", err)
	}
	if r.count != r.h.Count {
		return fmt.Errorf("trace: truncated stream: %d records, header promises %d",
			r.count, r.h.Count)
	}
	r.done = true
	return io.EOF
}

func (r *jsonlReader) Close() error { return nil }

// fileReader bundles a RecordReader with the file it reads.
type fileReader struct {
	RecordReader
	f *os.File
}

func (fr *fileReader) Close() error {
	err := fr.RecordReader.Close()
	if cerr := fr.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// fileWriter bundles a binary Writer with the file it writes; Close
// seals the trace then the file.
type fileWriter struct {
	*Writer
	f *os.File
}

func (fw *fileWriter) Close() error {
	err := fw.Writer.Close()
	if cerr := fw.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// NewReader auto-detects the trace format on r (binary magic vs JSONL
// '{') and returns the matching streaming reader.
func NewReader(r io.Reader) (RecordReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	sniff, err := br.Peek(len(BinaryMagic))
	if err != nil && len(sniff) == 0 {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty stream")
		}
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(sniff) >= len(BinaryMagic) && string(sniff[:6]) == BinaryMagic[:6] {
		// Any container version routes to the binary reader, which
		// rejects unsupported versions with a telling error instead of
		// "unrecognized format".
		return newBinaryReader(br)
	}
	if len(sniff) > 0 && sniff[0] == '{' {
		return newJSONLReader(br)
	}
	return nil, fmt.Errorf("trace: unrecognized trace format (leading bytes %q)", sniff)
}

// Open opens the trace at path for streaming reads, auto-detecting
// the format from the content (not the extension).
func Open(path string) (RecordReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	rr, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileReader{RecordReader: rr, f: f}, nil
}

// Create starts a streaming trace writer at path, which must carry
// BinaryExt. The header's Count is ignored — Close writes the index
// footer, which carries the real count.
func Create(path string, h Header) (RecordWriter, error) {
	f, err := createBinary(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, h, BinaryWriterOptions{})
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &fileWriter{Writer: w, f: f}, nil
}

// createBinary creates the file at path after checking that it names
// a binary trace; any other path is refused without touching the
// filesystem.
func createBinary(path string) (*os.File, error) {
	if !strings.EqualFold(filepath.Ext(path), BinaryExt) {
		return nil, fmt.Errorf("trace: %s: traces are written only as %s (the binary container)", path, BinaryExt)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return f, nil
}

// writeFile creates the binary trace at path and fills it with write.
// On any error the file is closed and removed, so a failed write never
// leaves a loadable trace behind.
func writeFile(path string, write func(*os.File) error) error {
	f, err := createBinary(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// Convert streams the trace at src (either format) into the binary
// container at dst, which must carry BinaryExt. Provenance — header
// fields including the UnitNs calibration — carries over. Returns the
// number of records converted; memory stays bounded regardless of
// trace size. On any error, a truncated source included, dst is
// removed rather than sealed as a shorter valid trace.
func Convert(src, dst string) (int, error) {
	rr, err := Open(src)
	if err != nil {
		return 0, err
	}
	defer rr.Close()
	n := 0
	err = writeFile(dst, func(f *os.File) error {
		w, err := NewWriter(f, *rr.Header(), BinaryWriterOptions{})
		if err != nil {
			return err
		}
		var rec Record
		for {
			if err := rr.Next(&rec); err == io.EOF {
				return w.Close()
			} else if err != nil {
				return err
			}
			if err := w.WriteRecord(&rec); err != nil {
				return err
			}
			n++
		}
	})
	return n, err
}

// materialize drains a streaming reader into a Trace. The
// preallocation is bounded the same way Read's is: a lying header
// count cannot force a huge up-front allocation.
func materialize(rr RecordReader) (*Trace, error) {
	h := rr.Header()
	tr := &Trace{Header: *h}
	if c := h.Count; c > 0 {
		if c > 4096 {
			c = 4096
		}
		tr.Records = make([]Record, 0, c)
	}
	var rec Record
	for {
		if err := rr.Next(&rec); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		tr.Records = append(tr.Records, rec)
	}
	// The binary reader learns the authoritative count from the
	// footer; refresh the materialized header either way.
	tr.Header = *rr.Header()
	tr.Header.Count = len(tr.Records)
	return tr, nil
}

// LoadSample loads at most ~max records from the trace at path,
// evenly spaced across the whole capture. On the binary format it
// uses the block index: only the selected blocks are read and
// decoded, so sampling a 10⁸-record trace touches a handful of
// blocks. JSONL has no index: a JSONL trace within budget loads
// whole, and one over budget is an error — convert it to the binary
// container first (stmbench -convert). max <= 0 loads everything.
func LoadSample(path string, max int) (*Trace, error) {
	if max <= 0 {
		return Load(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	var sniff [len(BinaryMagic)]byte
	n, _ := f.ReadAt(sniff[:], 0)
	if n == len(sniff) && string(sniff[:]) == BinaryMagic {
		return sampleBinary(f, max)
	}
	rr, err := NewReader(f)
	if err != nil {
		return nil, err
	}
	if c := rr.Header().Count; c > max {
		return nil, fmt.Errorf("trace: %s: %d JSONL records exceed the %d-record sample budget and JSONL has no index to sample; convert it first: stmbench -convert %s -out <file>%s",
			path, c, max, path, BinaryExt)
	}
	return materialize(rr)
}

// sampleBinary picks evenly spaced blocks off the index until the
// record budget is filled.
func sampleBinary(f *os.File, max int) (*Trace, error) {
	h, idx, total, err := readIndexFile(f)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Header: *h}
	if total <= max || len(idx) <= 1 {
		// Within budget (or a single block): stream the whole file.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		return ReadBinary(f)
	}
	// How many whole blocks fit the budget, and which: ceil-strided
	// positions across the index so the sample spans the capture.
	avg := (total + len(idx) - 1) / len(idx)
	want := max / avg
	if want < 1 {
		want = 1
	}
	if want > len(idx) {
		want = len(idx)
	}
	for i := 0; i < want; i++ {
		e := idx[i*len(idx)/want]
		if tr.Records, err = decodeBlockAt(f, e, tr.Records); err != nil {
			return nil, err
		}
	}
	tr.Header.Count = len(tr.Records)
	tr.Header.Sampled = total
	return tr, nil
}
