package trace

import (
	"fmt"
	"os"
)

// FormatName and FormatVersion identify the on-disk trace format, the
// binary container (binary.go), which frames records into CRC'd blocks
// behind an 8-byte magic. Version bumps whenever a Record or Header
// field changes meaning; the reader rejects files written by a newer
// version instead of silently misreading them.
const (
	FormatName    = "txconflict-trace"
	FormatVersion = 1
)

// Save writes the trace to path in the binary container; path must
// carry BinaryExt. A failed write removes the file, so no partial
// trace is left behind.
func Save(path string, tr *Trace) error {
	w, err := Create(path, countedHeader(tr))
	if err != nil {
		return err
	}
	return writeAll(w, tr.Records)
}

// Load reads and validates the trace at path. The content decides:
// any file holding the binary container loads, whatever its name, and
// anything else is refused.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return ReadBinary(f)
}
