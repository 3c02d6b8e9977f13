package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// The on-disk trace format, version 1:
//
//	magic   [4]byte  "BPT1"
//	nameLen uvarint  followed by nameLen bytes of UTF-8 name
//	instrs  uvarint  represented dynamic instruction count
//	count   uvarint  number of branch records
//	records count times:
//	  flags  byte     bit0 = taken
//	  dPC    varint   zigzag delta from previous record's PC
//	  dTgt   varint   zigzag delta from this record's PC to Target
//
// Delta encoding keeps files small: consecutive branches are usually
// near each other in the text segment, and targets are near their
// branches, so most records fit in 4-6 bytes.

var magic = [4]byte{'B', 'P', 'T', '1'}

// Header sanity bounds. Header fields are attacker-controlled (traces
// are shared artifacts), so nothing allocates proportionally to a
// header value beyond these caps.
const (
	// maxNameLen bounds the workload name; real names are tens of
	// bytes.
	maxNameLen = 1 << 16
	// maxRecordCount bounds the promised record count. Records are at
	// least 3 bytes on disk, so no honest trace under 3 TB exceeds it,
	// and iteration bounded by a lie this size still terminates.
	maxRecordCount = 1 << 40
	// preallocRecords caps ReadFile's upfront allocation (24 MB of
	// Branch records); a header promising more only grows the slice as
	// records actually decode.
	preallocRecords = 1 << 20
)

// ErrBadMagic indicates the stream is not a branch trace in any
// format version this package knows (BPT1 or BPT2).
var ErrBadMagic = errors.New("trace: bad magic; not a BPT1/BPT2 trace")

// Writer streams a trace to an io.Writer.
type Writer struct {
	w      *bufio.Writer
	prevPC uint64
	wrote  uint64
	count  uint64 // promised record count
}

// NewWriter writes the header for a trace with the given metadata and
// returns a Writer expecting exactly count branch records.
func NewWriter(w io.Writer, name string, instructions, count uint64) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(len(name))); err != nil {
		return nil, fmt.Errorf("trace: writing name length: %w", err)
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, fmt.Errorf("trace: writing name: %w", err)
	}
	if err := writeUvarint(instructions); err != nil {
		return nil, fmt.Errorf("trace: writing instruction count: %w", err)
	}
	if err := writeUvarint(count); err != nil {
		return nil, fmt.Errorf("trace: writing record count: %w", err)
	}
	return &Writer{w: bw, count: count}, nil
}

// WriteBranch appends one record. It returns an error if more records
// are written than the header promised.
func (w *Writer) WriteBranch(b Branch) error {
	if w.wrote >= w.count {
		return fmt.Errorf("trace: record %d exceeds promised count %d", w.wrote+1, w.count)
	}
	var buf [1 + 2*binary.MaxVarintLen64]byte
	flags := byte(0)
	if b.Taken {
		flags = 1
	}
	buf[0] = flags
	n := 1
	n += binary.PutVarint(buf[n:], int64(b.PC-w.prevPC))
	n += binary.PutVarint(buf[n:], int64(b.Target-b.PC))
	if _, err := w.w.Write(buf[:n]); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	w.prevPC = b.PC
	w.wrote++
	return nil
}

// Close flushes buffered data and verifies the promised record count
// was met.
func (w *Writer) Close() error {
	if w.wrote != w.count {
		return fmt.Errorf("trace: wrote %d records, header promised %d", w.wrote, w.count)
	}
	return w.w.Flush()
}

// reader1 streams a BPT1 trace. It implements Reader.
type reader1 struct {
	r            *bufio.Reader
	name         string
	instructions uint64
	count        uint64
	read         uint64
	prevPC       uint64
	err          error
}

// newReader1 parses the BPT1 header (including the already-sniffed
// magic) and returns a reader positioned at the first record.
func newReader1(br *bufio.Reader) (*reader1, error) {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	instrs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading instruction count: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading record count: %w", err)
	}
	if count > maxRecordCount {
		return nil, fmt.Errorf("trace: unreasonable record count %d", count)
	}
	return &reader1{r: br, name: string(nameBuf), instructions: instrs, count: count}, nil
}

// Name returns the workload name from the header.
func (r *reader1) Name() string { return r.name }

// Instructions returns the represented instruction count.
func (r *reader1) Instructions() uint64 { return r.instructions }

// Count returns the number of records the header promises.
func (r *reader1) Count() uint64 { return r.count }

// NextBatch fills buf by repeated decode; BPT1 is row-oriented so
// there is no block to window into.
func (r *reader1) NextBatch(buf []Branch) []Branch {
	n := 0
	for n < len(buf) {
		b, ok := r.Next()
		if !ok {
			break
		}
		buf[n] = b
		n++
	}
	return buf[:n]
}

// Next returns the next record. After exhaustion or an error it
// returns ok=false; check Err to distinguish.
func (r *reader1) Next() (Branch, bool) {
	if r.err != nil || r.read >= r.count {
		return Branch{}, false
	}
	flags, err := r.r.ReadByte()
	if err != nil {
		r.err = fmt.Errorf("trace: reading record %d flags: %w", r.read, err)
		return Branch{}, false
	}
	dPC, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("trace: reading record %d pc: %w", r.read, err)
		return Branch{}, false
	}
	dTgt, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("trace: reading record %d target: %w", r.read, err)
		return Branch{}, false
	}
	pc := r.prevPC + uint64(dPC)
	r.prevPC = pc
	r.read++
	return Branch{PC: pc, Target: pc + uint64(dTgt), Taken: flags&1 != 0}, true
}

// Err returns the first decoding error encountered, or nil.
func (r *reader1) Err() error { return r.err }

// WriteFile writes a whole trace to path.
func WriteFile(path string, t *Trace) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: closing %s: %w", path, cerr)
		}
	}()
	w, err := NewWriter(f, t.Name, t.Instructions, uint64(t.Len()))
	if err != nil {
		return err
	}
	for _, b := range t.Branches {
		if err := w.WriteBranch(b); err != nil {
			return err
		}
	}
	return w.Close()
}

// ReadFile loads a whole trace from path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return nil, err
	}
	pre := r.Count()
	if pre > preallocRecords {
		pre = preallocRecords
	}
	t := &Trace{
		Name:         r.Name(),
		Instructions: r.Instructions(),
		Branches:     make([]Branch, 0, pre),
	}
	for {
		b, ok := r.Next()
		if !ok {
			break
		}
		t.Branches = append(t.Branches, b)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if uint64(t.Len()) != r.Count() {
		return nil, fmt.Errorf("trace: %s truncated: %d of %d records", path, t.Len(), r.Count())
	}
	return t, nil
}
