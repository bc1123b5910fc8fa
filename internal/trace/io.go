package trace

import (
	"io"
	"os"
)

// FormatName and FormatVersion identify the on-disk trace formats.
// Traces are written only in the binary container (binary.go), which
// frames records into CRC'd blocks behind an 8-byte magic. JSONL — a
// single JSON header line followed by one JSON record per line — is
// read-only: earlier builds wrote it, and Load, Read and Convert still
// accept it. Version bumps whenever a Record or Header field changes
// meaning; readers of both formats reject files written by a newer
// version instead of silently misreading them.
const (
	FormatName    = "txconflict-trace"
	FormatVersion = 1
)

// maxLineBytes bounds one JSON line on load. A record with a
// whole-arena footprint is a few KiB; 4 MiB leaves two orders of
// magnitude of headroom.
const maxLineBytes = 4 << 20

// Read parses a JSONL trace from r, validating format name, version
// and record count (a short stream means a truncated file). It is
// the materialized convenience over the streaming reader; for binary
// streams use ReadBinary, for files of either format use Load.
func Read(r io.Reader) (*Trace, error) {
	jr, err := newJSONLReader(r)
	if err != nil {
		return nil, err
	}
	return materialize(jr)
}

// Save writes the trace to path in the binary container; path must
// carry BinaryExt. A failed write removes the file, so no partial
// trace is left behind.
func Save(path string, tr *Trace) error {
	return writeFile(path, func(f *os.File) error { return WriteBinary(f, tr) })
}

// Load reads and validates the trace at path, auto-detecting the
// format from the content (JSONL or the binary container) — the
// extension is only a writing-side convention.
func Load(path string) (*Trace, error) {
	rr, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer rr.Close()
	return materialize(rr)
}
