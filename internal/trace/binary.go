package trace

// The block-framed binary trace container (.btrace) — the one format
// traces are written in. The read-only JSONL format of earlier builds
// costs ~100 bytes/record; this format encodes the same Record
// stream at ~10-25 bytes/record (varint + delta coding, optional
// per-block DEFLATE), which is what makes 10⁶–10⁸-transaction traces
// practical to record, store and replay.
//
// Layout (all integers are unsigned varints unless stated; signed
// values use zigzag varints via encoding/binary.AppendVarint):
//
//	file    := magic(8 bytes, "txcbtr01") headerLen headerJSON block* footer trailer
//	block   := 'B' flags(1) count rawLen storedLen payload[storedLen] crc32(4, LE)
//	footer  := 'I' nBlocks entry* totalRecords crc32(4, LE)
//	entry   := count offsetΔ minStartΔ(zigzag) spanNs
//	trailer := footerOffset(8, LE) tailMagic(8 bytes, "txcbtrEN")
//
// Header JSON is the same Header struct a JSONL header line holds
// (format name, version, scenario provenance, the calibrated UnitNs
// cycle conversion); the footer's totalRecords is authoritative for
// the record count, so the stream can be written without knowing it
// up front. Block flags bit 0 marks a DEFLATE-compressed payload
// (applied per block, and only when it actually shrinks the block);
// crc32 (Castagnoli) covers the stored payload bytes. The footer's
// per-block index — record count, byte offset of the block's 'B'
// tag, min start timestamp and timestamp span — lets a seekable
// reader jump to any block (LoadSample) without decoding the rest.
// The trailer locates the footer from EOF.
//
// Record payload encoding (per record, inside a block):
//
//	flags(1)  bit0 committed, bit1 irrevocable,
//	          bit2 reads delta-coded, bit3 writes delta-coded
//	worker    zigzag
//	startNs   zigzag; absolute for the block's first record, then
//	          delta vs the previous record (blocks decode
//	          independently, which is what makes sampling work)
//	durNs graceNs retries killsSuffered killsIssued ops foldedWrites
//	compute think   float64 bits, byte-reversed then uvarint (round
//	                scenario lengths have few mantissa bits, so the
//	                reversal turns them into small varints)
//	reads     count, then either first+diffs (delta-coded when the
//	          footprint is nondecreasing — recorded footprints are
//	          sorted) or raw absolute indices
//	writes    same
//
// Version bumps ride the 8-byte magic ("txcbtr01" is v1) plus the
// embedded header's Version field; readers reject both newer magics
// and newer header versions.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
)

const (
	// BinaryMagic opens every .btrace file; the trailing "01" is the
	// container version.
	BinaryMagic = "txcbtr01"
	// binaryTailMagic closes the file, after the 8-byte footer offset.
	binaryTailMagic = "txcbtrEN"

	blockTag  = 'B'
	footerTag = 'I'

	blockFlagCompressed = 1 << 0

	recFlagCommitted   = 1 << 0
	recFlagIrrevocable = 1 << 1
	recFlagReadsDelta  = 1 << 2
	recFlagWritesDelta = 1 << 3

	// DefaultBlockRecords is the block framing bound: the writer seals
	// a block at this many records (or at maxBlockBytes of payload,
	// whichever comes first), so readers never hold more than one
	// block of records in memory.
	DefaultBlockRecords = 4096
	// maxBlockBytes caps one block's uncompressed payload on both
	// sides: the writer seals early past 8 MiB, and the reader rejects
	// declared sizes beyond 64 MiB before allocating (a lying header
	// must not commit us to a huge allocation — the binary analogue of
	// the JSONL unbounded-preallocation fix).
	maxBlockBytes     = 8 << 20
	maxDecodeBlock    = 64 << 20
	maxHeaderJSON     = 1 << 20
	maxFooterBytes    = 16 << 20
	maxBlockRecordCap = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BlockIndex is one footer entry: where a block lives and what record
// and time range it covers — enough to seek or sample without
// decoding the blocks in between.
type BlockIndex struct {
	// FirstRecord and Records give the block's record range
	// [FirstRecord, FirstRecord+Records).
	FirstRecord int
	Records     int
	// Offset is the file offset of the block's 'B' tag byte.
	Offset int64
	// MinStartNs and MaxStartNs bound the block's record start
	// timestamps.
	MinStartNs, MaxStartNs int64
}

// BinaryWriterOptions tunes the block framing.
type BinaryWriterOptions struct {
	// BlockRecords is the records-per-block bound (0 =
	// DefaultBlockRecords).
	BlockRecords int
	// NoCompress disables the per-block DEFLATE attempt (the writer
	// otherwise compresses each block and keeps whichever encoding is
	// smaller).
	NoCompress bool
}

// Writer streams Records into the block-framed binary container. One
// block of records is buffered at a time; Close seals the last block
// and writes the index footer and trailer. The writer needs only an
// io.Writer — the record count and index live in the footer, so
// nothing is back-patched.
type Writer struct {
	w   *bufio.Writer
	opt BinaryWriterOptions

	payload []byte // current block, uncompressed
	scratch bytes.Buffer
	fw      *flate.Writer

	blockRecs          int
	prevStart          int64
	minStart, maxStart int64

	off   int64 // bytes emitted so far (block offsets)
	index []BlockIndex
	total int

	closed bool
	err    error
}

// NewWriter starts a binary trace stream on w: magic and header are
// written immediately, records follow via WriteRecord, and Close
// seals the file. The header's Count may be zero — the footer carries
// the authoritative record count.
func NewWriter(w io.Writer, h Header, opt BinaryWriterOptions) (*Writer, error) {
	if opt.BlockRecords <= 0 {
		opt.BlockRecords = DefaultBlockRecords
	}
	h.Format = FormatName
	h.Version = FormatVersion
	hj, err := json.Marshal(&h)
	if err != nil {
		return nil, fmt.Errorf("trace: encode binary header: %w", err)
	}
	bw := &Writer{w: bufio.NewWriterSize(w, 1<<16), opt: opt}
	var pre []byte
	pre = append(pre, BinaryMagic...)
	pre = binary.AppendUvarint(pre, uint64(len(hj)))
	pre = append(pre, hj...)
	if _, err := bw.w.Write(pre); err != nil {
		bw.err = err
		return nil, fmt.Errorf("trace: write binary header: %w", err)
	}
	bw.off = int64(len(pre))
	return bw, nil
}

// WriteRecord appends one record to the stream, sealing a block when
// the framing bounds are reached.
func (bw *Writer) WriteRecord(r *Record) error {
	if bw.err != nil {
		return bw.err
	}
	if bw.closed {
		return fmt.Errorf("trace: WriteRecord after Close")
	}
	if bw.blockRecs == 0 {
		bw.minStart, bw.maxStart = r.StartNs, r.StartNs
		bw.payload = appendRecord(bw.payload[:0], r, r.StartNs, true)
	} else {
		if r.StartNs < bw.minStart {
			bw.minStart = r.StartNs
		}
		if r.StartNs > bw.maxStart {
			bw.maxStart = r.StartNs
		}
		bw.payload = appendRecord(bw.payload, r, bw.prevStart, false)
	}
	bw.prevStart = r.StartNs
	bw.blockRecs++
	bw.total++
	if bw.blockRecs >= bw.opt.BlockRecords || len(bw.payload) >= maxBlockBytes {
		return bw.flushBlock()
	}
	return nil
}

// flushBlock seals the buffered block: compress if it helps, frame,
// CRC, and record the index entry.
func (bw *Writer) flushBlock() error {
	if bw.blockRecs == 0 {
		return nil
	}
	stored := bw.payload
	var flags byte
	if !bw.opt.NoCompress {
		bw.scratch.Reset()
		if bw.fw == nil {
			bw.fw, _ = flate.NewWriter(&bw.scratch, flate.BestSpeed)
		} else {
			bw.fw.Reset(&bw.scratch)
		}
		if _, err := bw.fw.Write(bw.payload); err == nil && bw.fw.Close() == nil &&
			bw.scratch.Len() < len(bw.payload) {
			stored = bw.scratch.Bytes()
			flags = blockFlagCompressed
		}
	}
	var frame []byte
	frame = append(frame, blockTag, flags)
	frame = binary.AppendUvarint(frame, uint64(bw.blockRecs))
	frame = binary.AppendUvarint(frame, uint64(len(bw.payload)))
	frame = binary.AppendUvarint(frame, uint64(len(stored)))
	frame = append(frame, stored...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(stored, crcTable))
	if _, err := bw.w.Write(frame); err != nil {
		bw.err = err
		return fmt.Errorf("trace: write block: %w", err)
	}
	bw.index = append(bw.index, BlockIndex{
		FirstRecord: bw.total - bw.blockRecs,
		Records:     bw.blockRecs,
		Offset:      bw.off,
		MinStartNs:  bw.minStart,
		MaxStartNs:  bw.maxStart,
	})
	bw.off += int64(len(frame))
	bw.blockRecs = 0
	bw.payload = bw.payload[:0]
	return nil
}

// Close seals the last block and writes the index footer and trailer.
// The Writer is unusable afterwards; closing the underlying file is
// the caller's job.
func (bw *Writer) Close() error {
	if bw.closed {
		return bw.err
	}
	if err := bw.flushBlock(); err != nil {
		return err
	}
	bw.closed = true
	footerOff := bw.off
	var f []byte
	f = append(f, footerTag)
	f = binary.AppendUvarint(f, uint64(len(bw.index)))
	var prevOff, prevMin int64
	for _, e := range bw.index {
		f = binary.AppendUvarint(f, uint64(e.Records))
		f = binary.AppendUvarint(f, uint64(e.Offset-prevOff))
		f = binary.AppendVarint(f, e.MinStartNs-prevMin)
		f = binary.AppendUvarint(f, uint64(e.MaxStartNs-e.MinStartNs))
		prevOff, prevMin = e.Offset, e.MinStartNs
	}
	f = binary.AppendUvarint(f, uint64(bw.total))
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(f, crcTable))
	f = binary.LittleEndian.AppendUint64(f, uint64(footerOff))
	f = append(f, binaryTailMagic...)
	if _, err := bw.w.Write(f); err != nil {
		bw.err = err
		return fmt.Errorf("trace: write footer: %w", err)
	}
	if err := bw.w.Flush(); err != nil {
		bw.err = err
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// Count returns the number of records written so far.
func (bw *Writer) Count() int { return bw.total }

// Index returns the sealed blocks' index entries (complete only after
// Close).
func (bw *Writer) Index() []BlockIndex { return bw.index }

// appendRecord encodes one record onto buf. prevStart is the previous
// record's StartNs (the delta base); first marks the block's first
// record, whose StartNs is encoded absolutely.
func appendRecord(buf []byte, r *Record, prevStart int64, first bool) []byte {
	var flags byte
	if r.Committed {
		flags |= recFlagCommitted
	}
	if r.Irrevocable {
		flags |= recFlagIrrevocable
	}
	readsDelta := isNondecreasing(r.Reads)
	writesDelta := isNondecreasing(r.Writes)
	if readsDelta {
		flags |= recFlagReadsDelta
	}
	if writesDelta {
		flags |= recFlagWritesDelta
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, int64(r.Worker))
	if first {
		buf = binary.AppendVarint(buf, r.StartNs)
	} else {
		buf = binary.AppendVarint(buf, r.StartNs-prevStart)
	}
	buf = binary.AppendUvarint(buf, uint64(r.DurNs))
	buf = binary.AppendUvarint(buf, uint64(r.GraceNs))
	buf = binary.AppendUvarint(buf, uint64(r.Retries))
	buf = binary.AppendUvarint(buf, uint64(r.KillsSuffered))
	buf = binary.AppendUvarint(buf, uint64(r.KillsIssued))
	buf = binary.AppendUvarint(buf, uint64(r.Ops))
	buf = binary.AppendUvarint(buf, uint64(r.FoldedWrites))
	buf = appendFloat(buf, r.Compute)
	buf = appendFloat(buf, r.Think)
	buf = appendIndexList(buf, r.Reads, readsDelta)
	buf = appendIndexList(buf, r.Writes, writesDelta)
	return buf
}

func isNondecreasing(xs []uint32) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// appendFloat varint-encodes a float64's byte-reversed IEEE bits:
// scenario lengths are mostly small round numbers whose mantissa tail
// is zero, so the reversal puts the zeros in the high bits and the
// uvarint stays short.
func appendFloat(buf []byte, v float64) []byte {
	return binary.AppendUvarint(buf, bits.ReverseBytes64(math.Float64bits(v)))
}

func appendIndexList(buf []byte, xs []uint32, delta bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	if delta {
		prev := uint32(0)
		for i, x := range xs {
			if i == 0 {
				buf = binary.AppendUvarint(buf, uint64(x))
			} else {
				buf = binary.AppendUvarint(buf, uint64(x-prev))
			}
			prev = x
		}
		return buf
	}
	for _, x := range xs {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	return buf
}

// cursor is a bounds-checked byte reader for the decode paths (the
// fuzz harness feeds these arbitrary bytes, so every read must fail
// cleanly instead of slicing out of range).
type cursor struct {
	b   []byte
	pos int
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: bad uvarint at offset %d", c.pos)
	}
	c.pos += n
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: bad varint at offset %d", c.pos)
	}
	c.pos += n
	return v, nil
}

func (c *cursor) byte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, fmt.Errorf("trace: truncated at offset %d", c.pos)
	}
	b := c.b[c.pos]
	c.pos++
	return b, nil
}

func (c *cursor) float() (float64, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits.ReverseBytes64(v)), nil
}

func (c *cursor) indexList(delta bool) ([]uint32, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	// Each entry is at least one byte: bound the allocation by the
	// remaining payload before trusting the declared count.
	if n > uint64(len(c.b)-c.pos) {
		return nil, fmt.Errorf("trace: footprint count %d exceeds remaining payload", n)
	}
	xs := make([]uint32, n)
	prev := uint64(0)
	for i := range xs {
		v, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if delta && i > 0 {
			v += prev
		}
		if v > math.MaxUint32 {
			return nil, fmt.Errorf("trace: footprint index %d overflows uint32", v)
		}
		xs[i] = uint32(v)
		prev = v
	}
	return xs, nil
}

// decodeRecord decodes one record from the cursor. prevStart is the
// previous record's StartNs; first marks the block's first record.
func decodeRecord(c *cursor, r *Record, prevStart int64, first bool) error {
	flags, err := c.byte()
	if err != nil {
		return err
	}
	worker, err := c.varint()
	if err != nil {
		return err
	}
	start, err := c.varint()
	if err != nil {
		return err
	}
	if !first {
		start += prevStart
	}
	u := make([]uint64, 7)
	for i := range u {
		if u[i], err = c.uvarint(); err != nil {
			return err
		}
	}
	compute, err := c.float()
	if err != nil {
		return err
	}
	think, err := c.float()
	if err != nil {
		return err
	}
	reads, err := c.indexList(flags&recFlagReadsDelta != 0)
	if err != nil {
		return err
	}
	writes, err := c.indexList(flags&recFlagWritesDelta != 0)
	if err != nil {
		return err
	}
	if worker < math.MinInt32 || worker > math.MaxInt32 {
		return fmt.Errorf("trace: worker %d overflows int32", worker)
	}
	if u[0] > math.MaxInt64 || u[1] > math.MaxInt64 {
		return fmt.Errorf("trace: duration overflows int64")
	}
	for _, v := range u[2:] {
		if v > math.MaxUint32 {
			return fmt.Errorf("trace: counter %d overflows uint32", v)
		}
	}
	*r = Record{
		Worker:        int32(worker),
		StartNs:       start,
		DurNs:         int64(u[0]),
		GraceNs:       int64(u[1]),
		Retries:       uint32(u[2]),
		KillsSuffered: uint32(u[3]),
		KillsIssued:   uint32(u[4]),
		Ops:           uint32(u[5]),
		FoldedWrites:  uint32(u[6]),
		Committed:     flags&recFlagCommitted != 0,
		Irrevocable:   flags&recFlagIrrevocable != 0,
		Compute:       compute,
		Think:         think,
		Reads:         reads,
		Writes:        writes,
	}
	return nil
}

// binaryReader streams records out of a block-framed binary trace.
// It reads one block at a time (decompress, CRC-check, decode), so
// memory stays bounded by the block size regardless of trace length.
type binaryReader struct {
	br *bufio.Reader
	h  Header

	block    []Record // decoded current block
	blockPos int

	total   int // records handed out
	footer  bool
	footerN int // record count the footer promised

	rawBuf, storedBuf []byte
	fr                io.ReadCloser
}

// newBinaryReader parses the magic and header and positions the
// stream at the first block.
func newBinaryReader(r io.Reader) (*binaryReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(BinaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: read binary magic: %w", err)
	}
	if string(magic) != BinaryMagic {
		if string(magic[:6]) == BinaryMagic[:6] {
			return nil, fmt.Errorf("trace: unsupported binary container version %q (this build reads %q)",
				magic, BinaryMagic)
		}
		return nil, fmt.Errorf("trace: not a %s binary trace (magic %q)", FormatName, magic)
	}
	hlen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: read header length: %w", err)
	}
	if hlen > maxHeaderJSON {
		return nil, fmt.Errorf("trace: header length %d exceeds %d", hlen, maxHeaderJSON)
	}
	hj := make([]byte, hlen)
	if _, err := io.ReadFull(br, hj); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	var h Header
	if err := json.Unmarshal(hj, &h); err != nil {
		return nil, fmt.Errorf("trace: parse header: %w", err)
	}
	if h.Format != FormatName {
		return nil, fmt.Errorf("trace: not a %s stream (format %q)", FormatName, h.Format)
	}
	if h.Version < 1 || h.Version > FormatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d (this build reads <= %d)",
			h.Version, FormatVersion)
	}
	return &binaryReader{br: br, h: h}, nil
}

func (r *binaryReader) Header() *Header { return &r.h }

// Next decodes the next record into rec, loading the next block when
// the current one is exhausted. It returns io.EOF after the last
// record — but only once the footer has validated the stream.
func (r *binaryReader) Next(rec *Record) error {
	for r.blockPos >= len(r.block) {
		if r.footer {
			return io.EOF
		}
		if err := r.loadBlock(); err != nil {
			return err
		}
	}
	*rec = r.block[r.blockPos]
	r.blockPos++
	r.total++
	return nil
}

// loadBlock reads the next frame: a block (decoded into r.block) or
// the footer (validated, then EOF-ready).
func (r *binaryReader) loadBlock() error {
	tag, err := r.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return fmt.Errorf("trace: truncated binary stream: no index footer after %d records", r.total)
		}
		return fmt.Errorf("trace: read frame tag: %w", err)
	}
	switch tag {
	case blockTag:
		return r.decodeBlock()
	case footerTag:
		return r.readFooter()
	default:
		return fmt.Errorf("trace: unknown frame tag 0x%02x after %d records", tag, r.total)
	}
}

func (r *binaryReader) decodeBlock() error {
	flags, err := r.br.ReadByte()
	if err != nil {
		return fmt.Errorf("trace: read block flags: %w", err)
	}
	count, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: read block count: %w", err)
	}
	rawLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: read block raw length: %w", err)
	}
	storedLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: read block stored length: %w", err)
	}
	if rawLen > maxDecodeBlock || storedLen > maxDecodeBlock {
		return fmt.Errorf("trace: block size %d/%d exceeds %d", rawLen, storedLen, maxDecodeBlock)
	}
	if count > maxBlockRecordCap || count > rawLen {
		// Every record costs at least one payload byte; a count beyond
		// that is a lying header, rejected before any allocation.
		return fmt.Errorf("trace: block count %d impossible for %d payload bytes", count, rawLen)
	}
	if cap(r.storedBuf) < int(storedLen) {
		r.storedBuf = make([]byte, storedLen)
	}
	stored := r.storedBuf[:storedLen]
	if _, err := io.ReadFull(r.br, stored); err != nil {
		return fmt.Errorf("trace: read block payload: %w", err)
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(r.br, crcBytes[:]); err != nil {
		return fmt.Errorf("trace: read block crc: %w", err)
	}
	if got, want := crc32.Checksum(stored, crcTable), binary.LittleEndian.Uint32(crcBytes[:]); got != want {
		return fmt.Errorf("trace: block crc mismatch: computed %08x, stored %08x", got, want)
	}
	payload := stored
	if flags&blockFlagCompressed != 0 {
		if cap(r.rawBuf) < int(rawLen) {
			r.rawBuf = make([]byte, rawLen)
		}
		raw := r.rawBuf[:rawLen]
		fr := flate.NewReader(bytes.NewReader(stored))
		if _, err := io.ReadFull(fr, raw); err != nil {
			return fmt.Errorf("trace: decompress block: %w", err)
		}
		// The declared raw length must be exact, or the block framing
		// and the compressed stream disagree.
		var one [1]byte
		if n, _ := fr.Read(one[:]); n != 0 {
			return fmt.Errorf("trace: compressed block longer than declared %d bytes", rawLen)
		}
		fr.Close()
		payload = raw
	} else if uint64(len(payload)) != rawLen {
		return fmt.Errorf("trace: uncompressed block length %d, declared %d", len(payload), rawLen)
	}
	if cap(r.block) < int(count) {
		r.block = make([]Record, count)
	}
	r.block = r.block[:count]
	c := &cursor{b: payload}
	var prevStart int64
	for i := range r.block {
		if err := decodeRecord(c, &r.block[i], prevStart, i == 0); err != nil {
			return fmt.Errorf("trace: record %d: %w", r.total+i, err)
		}
		prevStart = r.block[i].StartNs
	}
	if c.pos != len(payload) {
		return fmt.Errorf("trace: block has %d trailing payload bytes", len(payload)-c.pos)
	}
	r.blockPos = 0
	return nil
}

// readFooter parses and validates the index footer and trailer; after
// it returns the reader serves io.EOF.
func (r *binaryReader) readFooter() error {
	// The footer tag has been consumed; the rest of the stream is
	// footer body + 4-byte CRC + 16-byte trailer, all bounded.
	rest, err := io.ReadAll(io.LimitReader(r.br, maxFooterBytes))
	if err != nil {
		return fmt.Errorf("trace: read footer: %w", err)
	}
	if len(rest) < 4+16 {
		return fmt.Errorf("trace: truncated footer (%d bytes)", len(rest))
	}
	trailer := rest[len(rest)-16:]
	if string(trailer[8:]) != binaryTailMagic {
		return fmt.Errorf("trace: bad trailer magic %q", trailer[8:])
	}
	body := rest[:len(rest)-16-4]
	crcStored := binary.LittleEndian.Uint32(rest[len(rest)-16-4 : len(rest)-16])
	// The CRC covers the footer tag byte plus the body.
	full := append([]byte{footerTag}, body...)
	if got := crc32.Checksum(full, crcTable); got != crcStored {
		return fmt.Errorf("trace: footer crc mismatch: computed %08x, stored %08x", got, crcStored)
	}
	idx, total, err := parseFooterBody(body)
	if err != nil {
		return err
	}
	if total != r.total {
		return fmt.Errorf("trace: truncated stream: %d records, footer promises %d", r.total, total)
	}
	var sum int
	for _, e := range idx {
		sum += e.Records
	}
	if sum != total {
		return fmt.Errorf("trace: footer index covers %d records, footer promises %d", sum, total)
	}
	r.footer = true
	r.footerN = total
	r.h.Count = total
	return nil
}

// parseFooterBody decodes the footer's index entries and total count
// (the bytes between the 'I' tag and the CRC).
func parseFooterBody(body []byte) ([]BlockIndex, int, error) {
	c := &cursor{b: body}
	n, err := c.uvarint()
	if err != nil {
		return nil, 0, fmt.Errorf("trace: footer block count: %w", err)
	}
	if n > uint64(len(body)) {
		return nil, 0, fmt.Errorf("trace: footer block count %d impossible for %d bytes", n, len(body))
	}
	idx := make([]BlockIndex, n)
	var prevOff, prevMin int64
	first := 0
	for i := range idx {
		recs, err := c.uvarint()
		if err != nil {
			return nil, 0, err
		}
		offD, err := c.uvarint()
		if err != nil {
			return nil, 0, err
		}
		minD, err := c.varint()
		if err != nil {
			return nil, 0, err
		}
		span, err := c.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if recs > maxBlockRecordCap {
			return nil, 0, fmt.Errorf("trace: footer entry %d count %d exceeds block cap", i, recs)
		}
		if offD > math.MaxInt64-uint64(prevOff) || span > math.MaxInt64 {
			return nil, 0, fmt.Errorf("trace: footer entry %d offset overflow", i)
		}
		e := &idx[i]
		e.FirstRecord = first
		e.Records = int(recs)
		e.Offset = prevOff + int64(offD)
		e.MinStartNs = prevMin + minD
		e.MaxStartNs = e.MinStartNs + int64(span)
		prevOff, prevMin = e.Offset, e.MinStartNs
		first += int(recs)
	}
	total, err := c.uvarint()
	if err != nil {
		return nil, 0, fmt.Errorf("trace: footer total: %w", err)
	}
	if c.pos != len(body) {
		return nil, 0, fmt.Errorf("trace: footer has %d trailing bytes", len(body)-c.pos)
	}
	if total > math.MaxInt32 {
		return nil, 0, fmt.Errorf("trace: footer total %d overflows", total)
	}
	return idx, int(total), nil
}

func (r *binaryReader) Close() error { return nil }

// WriteBinary encodes the whole trace to w in the binary container
// (the []Record-materialized convenience; Writer is the streaming
// path).
func WriteBinary(w io.Writer, tr *Trace) error {
	h := tr.Header
	h.Count = len(tr.Records)
	bw, err := NewWriter(w, h, BinaryWriterOptions{})
	if err != nil {
		return err
	}
	for i := range tr.Records {
		if err := bw.WriteRecord(&tr.Records[i]); err != nil {
			return err
		}
	}
	return bw.Close()
}

// ReadBinary materializes a binary trace from r, validating framing,
// CRCs, and the index footer.
func ReadBinary(r io.Reader) (*Trace, error) {
	br, err := newBinaryReader(r)
	if err != nil {
		return nil, err
	}
	return materialize(br)
}

// ReadIndex opens the binary trace at path and returns its header and
// block index via the trailer — no record decoding, O(footer) work
// regardless of trace size.
func ReadIndex(path string) (*Header, []BlockIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	h, idx, _, err := readIndexFile(f)
	return h, idx, err
}

// readIndexFile reads the header (front) and footer (via the trailer
// at EOF) of an open binary trace file.
func readIndexFile(f *os.File) (*Header, []BlockIndex, int, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("trace: %w", err)
	}
	size := st.Size()
	if size < int64(len(BinaryMagic))+16 {
		return nil, nil, 0, fmt.Errorf("trace: file too short (%d bytes) for a binary trace", size)
	}
	var trailer [16]byte
	if _, err := f.ReadAt(trailer[:], size-16); err != nil {
		return nil, nil, 0, fmt.Errorf("trace: read trailer: %w", err)
	}
	if string(trailer[8:]) != binaryTailMagic {
		return nil, nil, 0, fmt.Errorf("trace: bad trailer magic %q", trailer[8:])
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if footerOff < int64(len(BinaryMagic)) || footerOff >= size-16 {
		return nil, nil, 0, fmt.Errorf("trace: footer offset %d out of range", footerOff)
	}
	// Header: parse from the front (reuse the streaming reader's
	// header logic without consuming blocks).
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, 0, fmt.Errorf("trace: %w", err)
	}
	br, err := newBinaryReader(f)
	if err != nil {
		return nil, nil, 0, err
	}
	h := br.h
	// Footer: tag + body + CRC + trailer.
	flen := size - 16 - footerOff
	if flen > maxFooterBytes {
		return nil, nil, 0, fmt.Errorf("trace: footer length %d exceeds %d", flen, maxFooterBytes)
	}
	fbytes := make([]byte, flen)
	if _, err := f.ReadAt(fbytes, footerOff); err != nil {
		return nil, nil, 0, fmt.Errorf("trace: read footer: %w", err)
	}
	if len(fbytes) < 1+4 || fbytes[0] != footerTag {
		return nil, nil, 0, fmt.Errorf("trace: footer offset does not point at an index footer")
	}
	body := fbytes[1 : len(fbytes)-4]
	crcStored := binary.LittleEndian.Uint32(fbytes[len(fbytes)-4:])
	if got := crc32.Checksum(fbytes[:len(fbytes)-4], crcTable); got != crcStored {
		return nil, nil, 0, fmt.Errorf("trace: footer crc mismatch: computed %08x, stored %08x", got, crcStored)
	}
	idx, total, err := parseFooterBody(body)
	if err != nil {
		return nil, nil, 0, err
	}
	h.Count = total
	return &h, idx, total, nil
}

// decodeBlockAt seeks to one indexed block and decodes it — the
// sampling path: only the selected blocks are ever read.
func decodeBlockAt(f *os.File, e BlockIndex, out []Record) ([]Record, error) {
	if _, err := f.Seek(e.Offset, io.SeekStart); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	br := &binaryReader{br: bufio.NewReaderSize(f, 1<<16)}
	tag, err := br.br.ReadByte()
	if err != nil || tag != blockTag {
		return nil, fmt.Errorf("trace: indexed offset %d does not frame a block", e.Offset)
	}
	if err := br.decodeBlock(); err != nil {
		return nil, err
	}
	if len(br.block) != e.Records {
		return nil, fmt.Errorf("trace: indexed block at %d has %d records, index promises %d",
			e.Offset, len(br.block), e.Records)
	}
	return append(out, br.block...), nil
}
