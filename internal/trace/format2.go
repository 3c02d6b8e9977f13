package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The on-disk trace format, version 2 — columnar and block-oriented,
// so a reader decodes one small block at a time straight from the
// file instead of materializing the whole trace:
//
//	magic    [4]byte  "BPT2"
//	nameLen  uvarint  followed by nameLen bytes of UTF-8 name
//	instrs   uvarint  represented dynamic instruction count
//	count    uvarint  total number of branch records
//	blockLen uvarint  maximum records per block (1..maxBlockLen)
//	blocks, until count records are encoded:
//	  recs    uvarint  records in this block (1..blockLen)
//	  prevPC  uvarint  PC of the record preceding the block (0 first);
//	                   seeds the delta chain so a block decodes
//	                   standalone; a sequential reader checks it
//	                   against the previous block's last PC
//	  pcLen   uvarint  byte length of the PC column
//	  tgtLen  uvarint  byte length of the target column
//	  crc     uint32le IEEE CRC-32 of pcCol ++ tgtCol ++ takenCol
//	  pcCol   recs zigzag varints: delta from previous record's PC
//	  tgtCol  recs zigzag varints: Target - PC
//	  takenCol ceil(recs/8) bytes: outcome bits, LSB-first
//	index (footer, after the last block):
//	  imagic  [4]byte  "BPI2"
//	  payload nblocks uvarint, then per block: size uvarint (encoded
//	          block bytes including its header), recs uvarint
//	  crc     uint32le IEEE CRC-32 of the payload
//	  isize   uint32le bytes from imagic through crc — the trailer a
//	          reader uses to find the index from the end of the file
//
// Splitting the record stream into same-kind columns groups the
// small, similarly-distributed values (PC deltas cluster near zero,
// outcomes are single bits), and bit-packing the taken column drops
// the per-record flags byte BPT1 pays. The writer emits the footer
// index, but no reader in the program reads it: every pass streams
// the blocks in order. Block file offsets and branch-count offsets
// are not stored; both fall out of prefix sums over the index
// entries, with the first block starting right after the file
// header.

var (
	magic2      = [4]byte{'B', 'P', 'T', '2'}
	indexMagic2 = [4]byte{'B', 'P', 'I', '2'}
)

const (
	// maxBlockLen bounds a block's record count. A block's decoded
	// form (24 B/record) and its worst-case encoded columns
	// (~21 B/record) both stay near a megabyte even under a hostile
	// header, so nothing allocates unboundedly.
	maxBlockLen = 1 << 16
	// DefaultBlockLen is the writer's default records-per-block. 1024
	// records decode to a 24 KB window — resident in L1d next to the
	// predictor tables, matching the fused kernels' decode tiles.
	DefaultBlockLen = 1024
)

// Writer2 streams a trace to an io.Writer in BPT2 form. The caller
// promises the record count up front (it sits in the header); Close
// verifies the promise and appends the block index.
type Writer2 struct {
	w        *bufio.Writer
	count    uint64 // promised record count
	wrote    uint64
	blockLen int

	// Current block under construction.
	recs     int
	startPC  uint64 // PC preceding the block's first record
	prevPC   uint64
	pcCol    []byte
	tgtCol   []byte
	takenCol []byte

	index []indexEntry
}

type indexEntry struct {
	size uint64 // encoded block bytes, header included
	recs uint64
}

// NewWriter2 writes the BPT2 header and returns a writer expecting
// exactly count branch records. blockLen 0 selects DefaultBlockLen.
func NewWriter2(w io.Writer, name string, instructions, count uint64, blockLen int) (*Writer2, error) {
	if blockLen == 0 {
		blockLen = DefaultBlockLen
	}
	if blockLen < 1 || blockLen > maxBlockLen {
		return nil, fmt.Errorf("trace: block length %d out of range [1,%d]", blockLen, maxBlockLen)
	}
	if uint64(len(name)) > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds cap %d", len(name), maxNameLen)
	}
	if count > maxRecordCount {
		return nil, fmt.Errorf("trace: record count %d exceeds cap %d", count, maxRecordCount)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic2[:]); err != nil {
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
	if err := writeUvarint(uint64(blockLen)); err != nil {
		return nil, fmt.Errorf("trace: writing block length: %w", err)
	}
	return &Writer2{
		w:        bw,
		count:    count,
		blockLen: blockLen,
		pcCol:    make([]byte, 0, blockLen*5),
		tgtCol:   make([]byte, 0, blockLen*5),
		takenCol: make([]byte, 0, (blockLen+7)/8),
	}, nil
}

// WriteBranch appends one record, flushing a block whenever blockLen
// records have accumulated. It returns an error if more records are
// written than the header promised.
func (w *Writer2) WriteBranch(b Branch) error {
	if w.wrote >= w.count {
		return fmt.Errorf("trace: record %d exceeds promised count %d", w.wrote+1, w.count)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], int64(b.PC-w.prevPC))
	w.pcCol = append(w.pcCol, buf[:n]...)
	n = binary.PutVarint(buf[:], int64(b.Target-b.PC))
	w.tgtCol = append(w.tgtCol, buf[:n]...)
	if w.recs%8 == 0 {
		w.takenCol = append(w.takenCol, 0)
	}
	if b.Taken {
		w.takenCol[w.recs/8] |= 1 << (w.recs % 8)
	}
	w.prevPC = b.PC
	w.recs++
	w.wrote++
	if w.recs == w.blockLen {
		return w.flushBlock()
	}
	return nil
}

// flushBlock writes the accumulated block and resets the columns.
func (w *Writer2) flushBlock() error {
	crc := crc32.NewIEEE()
	crc.Write(w.pcCol)
	crc.Write(w.tgtCol)
	crc.Write(w.takenCol)

	var hdr [4*binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(w.recs))
	n += binary.PutUvarint(hdr[n:], w.startPC)
	n += binary.PutUvarint(hdr[n:], uint64(len(w.pcCol)))
	n += binary.PutUvarint(hdr[n:], uint64(len(w.tgtCol)))
	binary.LittleEndian.PutUint32(hdr[n:], crc.Sum32())
	n += 4
	if _, err := w.w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("trace: writing block header: %w", err)
	}
	for _, col := range [][]byte{w.pcCol, w.tgtCol, w.takenCol} {
		if _, err := w.w.Write(col); err != nil {
			return fmt.Errorf("trace: writing block column: %w", err)
		}
	}
	w.index = append(w.index, indexEntry{
		size: uint64(n) + uint64(len(w.pcCol)) + uint64(len(w.tgtCol)) + uint64(len(w.takenCol)),
		recs: uint64(w.recs),
	})
	w.recs = 0
	w.startPC = w.prevPC
	w.pcCol = w.pcCol[:0]
	w.tgtCol = w.tgtCol[:0]
	w.takenCol = w.takenCol[:0]
	return nil
}

// Close flushes the final partial block, verifies the promised record
// count was met, and appends the footer index.
func (w *Writer2) Close() error {
	if w.wrote != w.count {
		return fmt.Errorf("trace: wrote %d records, header promised %d", w.wrote, w.count)
	}
	if w.recs > 0 {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	payload := make([]byte, 0, 2*binary.MaxVarintLen64*(len(w.index)+1))
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(w.index)))
	payload = append(payload, buf[:n]...)
	for _, e := range w.index {
		n = binary.PutUvarint(buf[:], e.size)
		payload = append(payload, buf[:n]...)
		n = binary.PutUvarint(buf[:], e.recs)
		payload = append(payload, buf[:n]...)
	}
	if _, err := w.w.Write(indexMagic2[:]); err != nil {
		return fmt.Errorf("trace: writing index magic: %w", err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return fmt.Errorf("trace: writing index: %w", err)
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[0:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(tail[4:], uint32(4+len(payload)+4))
	if _, err := w.w.Write(tail[:]); err != nil {
		return fmt.Errorf("trace: writing index trailer: %w", err)
	}
	return w.w.Flush()
}

// reader2 streams a BPT2 trace one block at a time. It implements
// Reader; NextBatch returns zero-copy windows into the single decoded
// block, so at most blockLen records are ever resident.
type reader2 struct {
	br           *bufio.Reader
	name         string
	instructions uint64
	count        uint64
	blockLen     uint64
	read         uint64 // records handed out so far
	prevPC       uint64 // last decoded PC (delta-chain state)
	err          error

	block   []Branch // decoded current block
	pos     int      // cursor within block
	payload []byte   // raw column scratch, reused across blocks
}

// newReader2 parses the BPT2 header (including the already-sniffed
// magic) and returns a reader positioned at the first record.
func newReader2(br *bufio.Reader) (*reader2, error) {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic2 {
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
	blockLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading block length: %w", err)
	}
	if blockLen < 1 || blockLen > maxBlockLen {
		return nil, fmt.Errorf("trace: block length %d out of range [1,%d]", blockLen, maxBlockLen)
	}
	return &reader2{
		br:           br,
		name:         string(nameBuf),
		instructions: instrs,
		count:        count,
		blockLen:     blockLen,
	}, nil
}

func (r *reader2) Name() string         { return r.name }
func (r *reader2) Instructions() uint64 { return r.instructions }
func (r *reader2) Count() uint64        { return r.count }
func (r *reader2) Err() error           { return r.err }

// nextBlock decodes the next block into r.block. It returns false at
// end of trace or on error (recorded in r.err).
func (r *reader2) nextBlock() bool {
	if r.err != nil || r.read >= r.count {
		return false
	}
	recs, err := binary.ReadUvarint(r.br)
	if err != nil {
		r.err = fmt.Errorf("trace: reading block header at record %d: %w", r.read, err)
		return false
	}
	if recs < 1 || recs > r.blockLen {
		r.err = fmt.Errorf("trace: block record count %d out of range [1,%d]", recs, r.blockLen)
		return false
	}
	if r.read+recs > r.count {
		r.err = fmt.Errorf("trace: block of %d records overruns promised count %d at record %d", recs, r.count, r.read)
		return false
	}
	startPC, err := binary.ReadUvarint(r.br)
	if err != nil {
		r.err = fmt.Errorf("trace: reading block base pc: %w", err)
		return false
	}
	if startPC != r.prevPC {
		r.err = fmt.Errorf("trace: block base pc %#x breaks delta chain (want %#x) at record %d", startPC, r.prevPC, r.read)
		return false
	}
	pcLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		r.err = fmt.Errorf("trace: reading pc column length: %w", err)
		return false
	}
	tgtLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		r.err = fmt.Errorf("trace: reading target column length: %w", err)
		return false
	}
	// A varint is at most 10 bytes, so any honest column is bounded by
	// 10*recs; larger claims are lies and must not drive allocation.
	if pcLen > uint64(binary.MaxVarintLen64)*recs || tgtLen > uint64(binary.MaxVarintLen64)*recs {
		r.err = fmt.Errorf("trace: column lengths %d/%d unreasonable for %d records", pcLen, tgtLen, recs)
		return false
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.br, crcBuf[:]); err != nil {
		r.err = fmt.Errorf("trace: reading block checksum: %w", err)
		return false
	}
	wantCRC := binary.LittleEndian.Uint32(crcBuf[:])
	takenLen := (recs + 7) / 8
	total := pcLen + tgtLen + takenLen
	if uint64(cap(r.payload)) < total {
		r.payload = make([]byte, total)
	}
	r.payload = r.payload[:total]
	if _, err := io.ReadFull(r.br, r.payload); err != nil {
		r.err = fmt.Errorf("trace: reading block columns at record %d: %w", r.read, err)
		return false
	}
	if got := crc32.ChecksumIEEE(r.payload); got != wantCRC {
		r.err = fmt.Errorf("trace: block checksum mismatch at record %d: got %08x want %08x", r.read, got, wantCRC)
		return false
	}
	pcCol := r.payload[:pcLen]
	tgtCol := r.payload[pcLen : pcLen+tgtLen]
	takenCol := r.payload[pcLen+tgtLen:]

	if uint64(cap(r.block)) < recs {
		r.block = make([]Branch, recs)
	}
	r.block = r.block[:recs]
	pc := startPC
	pi, ti := 0, 0
	for i := uint64(0); i < recs; i++ {
		dPC, n := binary.Varint(pcCol[pi:])
		if n <= 0 {
			r.err = fmt.Errorf("trace: corrupt pc column at record %d", r.read+i)
			return false
		}
		pi += n
		dTgt, n := binary.Varint(tgtCol[ti:])
		if n <= 0 {
			r.err = fmt.Errorf("trace: corrupt target column at record %d", r.read+i)
			return false
		}
		ti += n
		pc += uint64(dPC)
		r.block[i] = Branch{
			PC:     pc,
			Target: pc + uint64(dTgt),
			Taken:  takenCol[i/8]&(1<<(i%8)) != 0,
		}
	}
	if pi != len(pcCol) || ti != len(tgtCol) {
		r.err = fmt.Errorf("trace: block columns have %d/%d trailing bytes at record %d",
			len(pcCol)-pi, len(tgtCol)-ti, r.read)
		return false
	}
	r.prevPC = pc
	r.pos = 0
	return true
}

// Next returns the next record. After exhaustion or an error it
// returns ok=false; check Err to distinguish.
func (r *reader2) Next() (Branch, bool) {
	if r.pos >= len(r.block) {
		if !r.nextBlock() {
			return Branch{}, false
		}
	}
	b := r.block[r.pos]
	r.pos++
	r.read++
	return b, true
}

// NextBatch returns a zero-copy window into the current decoded
// block, at most len(buf) records long (buf itself is untouched).
// The window is valid until the following NextBatch call.
func (r *reader2) NextBatch(buf []Branch) []Branch {
	if len(buf) == 0 {
		return nil
	}
	if r.pos >= len(r.block) {
		if !r.nextBlock() {
			return nil
		}
	}
	n := len(r.block) - r.pos
	if n > len(buf) {
		n = len(buf)
	}
	out := r.block[r.pos : r.pos+n]
	r.pos += n
	r.read += uint64(n)
	return out
}

// WriteFile2 writes a whole trace to path in BPT2 form. blockLen 0
// selects DefaultBlockLen.
func WriteFile2(path string, t *Trace, blockLen int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: closing %s: %w", path, cerr)
		}
	}()
	w, err := NewWriter2(f, t.Name, t.Instructions, uint64(t.Len()), blockLen)
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
