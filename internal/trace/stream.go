package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// BinaryExt is the extension every written trace carries: Create and
// Save write only the block-framed binary container, and refuse any
// other destination before creating a file.
const BinaryExt = ".btrace"

// Create starts a streaming trace writer at path, which must carry
// BinaryExt. The returned Writer owns the file: Close seals the trace
// and closes it, and removes it if either step fails. The header's
// Count is ignored — Close writes the index footer, which carries the
// real count.
func Create(path string, h Header) (*Writer, error) {
	if !strings.EqualFold(filepath.Ext(path), BinaryExt) {
		return nil, fmt.Errorf("trace: %s: traces are written only as %s (the binary container)", path, BinaryExt)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	w, err := NewWriter(f, h)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	w.file = f
	return w, nil
}

// materialize drains a streaming reader into a Trace. A lying header
// count cannot force a huge up-front allocation: the preallocation is
// bounded, and the footer's count is the one the Trace keeps.
func materialize(br *binaryReader) (*Trace, error) {
	tr := &Trace{}
	if c := br.h.Count; c > 0 {
		tr.Records = make([]Record, 0, min(c, 4096))
	}
	var rec Record
	for {
		if err := br.Next(&rec); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		tr.Records = append(tr.Records, rec)
	}
	tr.Header = br.h
	tr.Header.Count = len(tr.Records)
	return tr, nil
}

// LoadSample loads at most ~budget records from the trace at path,
// evenly spaced across the whole capture. It uses the block index:
// only the selected blocks are read and decoded, so sampling a
// 10⁸-record trace touches a handful of blocks. budget <= 0 loads
// everything.
func LoadSample(path string, budget int) (*Trace, error) {
	if budget <= 0 {
		return Load(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	h, idx, total, err := readIndexFile(f)
	if err != nil {
		return nil, err
	}
	if total <= budget || len(idx) <= 1 {
		// Within budget (or a single block): stream the whole file.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		return ReadBinary(f)
	}
	// How many whole blocks fit the budget, and which: ceil-strided
	// positions across the index so the sample spans the capture.
	avg := (total + len(idx) - 1) / len(idx)
	want := min(max(budget/avg, 1), len(idx))
	tr := &Trace{Header: *h}
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
