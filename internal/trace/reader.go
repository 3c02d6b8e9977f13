package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Reader is the format-versioned trace decoder. Both on-disk formats
// (row-oriented BPT1 and columnar BPT2) satisfy it, so everything
// above this package — the simulator's streaming path, the service's
// ingest/transcode pipeline, cluster trace replication — consumes
// traces without knowing which version backs them.
//
// A Reader is a BatchSource: NextBatch yields chunks sized for the
// simulator's fast path. For BPT2 the chunks are zero-copy windows
// into the reader's single decoded block (one block resident at a
// time); for BPT1 they are filled into the caller's buffer. After
// exhaustion, Err distinguishes clean EOF (nil) from a decode error.
type Reader interface {
	BatchSource
	// Name returns the workload name from the header.
	Name() string
	// Instructions returns the represented dynamic instruction count.
	Instructions() uint64
	// Count returns the number of records the header promises.
	Count() uint64
	// Err returns the first decoding error encountered, or nil.
	Err() error
}

// NewReader sniffs the stream's magic and returns a Reader for
// whichever format version it announces. Unknown magic yields
// ErrBadMagic.
func NewReader(r io.Reader) (Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	m, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch {
	case [4]byte(m) == magic:
		rd, err := newReader1(br)
		if err != nil {
			return nil, err
		}
		return rd, nil
	case [4]byte(m) == magic2:
		rd, err := newReader2(br)
		if err != nil {
			return nil, err
		}
		return rd, nil
	}
	return nil, ErrBadMagic
}

// FileReader is a Reader over an opened trace file.
type FileReader struct {
	Reader
	f *os.File
}

// OpenFile opens path and returns a streaming reader positioned at
// the first record. The caller owns Close.
func OpenFile(path string) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	rd, err := NewReader(f)
	if err != nil {
		cerr := f.Close()
		if cerr != nil {
			return nil, fmt.Errorf("trace: %s: %w (and closing: %v)", path, err, cerr)
		}
		return nil, err
	}
	return &FileReader{Reader: rd, f: f}, nil
}

// Close releases the underlying file.
func (fr *FileReader) Close() error { return fr.f.Close() }
