package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"
	"testing/quick"
)

func sample() *Trace {
	return &Trace{
		Name:         "sample",
		Instructions: 1000,
		Branches: []Branch{
			{PC: 0x1000, Target: 0x0F00, Taken: true},
			{PC: 0x1008, Target: 0x1100, Taken: false},
			{PC: 0x1000, Target: 0x0F00, Taken: true},
			{PC: 0x2000, Target: 0x2040, Taken: true},
		},
	}
}

func TestSourceIteration(t *testing.T) {
	tr := sample()
	src := tr.NewSource()
	for i := 0; i < tr.Len(); i++ {
		b, ok := src.Next()
		if !ok {
			t.Fatalf("source ended early at %d", i)
		}
		if b != tr.Branches[i] {
			t.Fatalf("record %d = %+v, want %+v", i, b, tr.Branches[i])
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("source did not end")
	}
	// A second Next after exhaustion stays exhausted.
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source revived")
	}
}

func TestSliceScalesMetadata(t *testing.T) {
	tr := sample()
	sub := tr.Slice(1, 3)
	if sub.Len() != 2 {
		t.Fatalf("sub length %d, want 2", sub.Len())
	}
	if sub.Instructions != 500 {
		t.Fatalf("sub instructions %d, want 500", sub.Instructions)
	}
	if sub.Branches[0] != tr.Branches[1] {
		t.Fatal("slice misaligned")
	}
}

func TestRoundTripInMemory(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, tr.Name, tr.Instructions, uint64(tr.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.Branches {
		if err := w.WriteBranch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != tr.Name || r.Instructions() != tr.Instructions || r.Count() != uint64(tr.Len()) {
		t.Fatalf("header mismatch: %q/%d/%d", r.Name(), r.Instructions(), r.Count())
	}
	for i, want := range tr.Branches {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("reader ended at %d: %v", i, r.Err())
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("reader overran promised count")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestRoundTripFile(t *testing.T) {
	tr := sample()
	path := filepath.Join(t.TempDir(), "sample.bpt")
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Instructions != tr.Instructions || got.Len() != tr.Len() {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for i := range tr.Branches {
		if got.Branches[i] != tr.Branches[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE????????"))); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderRejectsTruncation(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, tr.Name, tr.Instructions, uint64(tr.Len()))
	for _, b := range tr.Branches {
		_ = w.WriteBranch(b)
	}
	_ = w.Close()
	// Chop off the tail.
	data := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if r.Err() == nil {
		t.Fatalf("truncated stream read %d records with no error", n)
	}
}

func TestWriterEnforcesCount(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "x", 0, 1)
	if err := w.WriteBranch(Branch{}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBranch(Branch{}); err == nil {
		t.Fatal("writer accepted more records than promised")
	}
	// Underrun detection.
	var buf2 bytes.Buffer
	w2, _ := NewWriter(&buf2, "x", 0, 2)
	_ = w2.WriteBranch(Branch{})
	if err := w2.Close(); err == nil {
		t.Fatal("Close accepted an underrun")
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	tr := &Trace{Name: "empty"}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, tr.Name, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("empty trace yielded a record")
	}
}

// Property: arbitrary branch sequences round-trip exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(pcs []uint32, takens []bool) bool {
		n := len(pcs)
		if len(takens) < n {
			n = len(takens)
		}
		tr := &Trace{Name: "prop"}
		for i := 0; i < n; i++ {
			tr.Append(Branch{
				PC:     uint64(pcs[i]) &^ 3,
				Target: uint64(pcs[i])&^3 + 8,
				Taken:  takens[i],
			})
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, tr.Name, 0, uint64(tr.Len()))
		if err != nil {
			return false
		}
		for _, b := range tr.Branches {
			if err := w.WriteBranch(b); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for i := 0; i < tr.Len(); i++ {
			got, ok := r.Next()
			if !ok || got != tr.Branches[i] {
				return false
			}
		}
		_, ok := r.Next()
		return !ok && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompression(t *testing.T) {
	// Locality-heavy traces should encode in well under 16 bytes/record.
	tr := &Trace{Name: "dense"}
	pc := uint64(0x10000)
	for i := 0; i < 10000; i++ {
		pc += 8
		if pc > 0x12000 {
			pc = 0x10000
		}
		tr.Append(Branch{PC: pc, Target: pc + 32, Taken: i%3 != 0})
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, tr.Name, 0, uint64(tr.Len()))
	for _, b := range tr.Branches {
		_ = w.WriteBranch(b)
	}
	_ = w.Close()
	perRecord := float64(buf.Len()) / float64(tr.Len())
	if perRecord > 8 {
		t.Errorf("encoding %.1f bytes/record; delta coding is broken", perRecord)
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errWriteFail
	}
	n := len(p)
	if n > f.after {
		n = f.after
	}
	f.after -= n
	if n < len(p) {
		return n, errWriteFail
	}
	return n, nil
}

var errWriteFail = errors.New("synthetic write failure")

func TestWriterPropagatesIOErrors(t *testing.T) {
	// Header write failure.
	if _, err := NewWriter(&failWriter{after: 2}, "x", 1, 1); err == nil {
		// The bufio layer may defer the error past the header; force
		// it through a record + close.
		w, _ := NewWriter(&failWriter{after: 2}, "x", 1, 1)
		if w != nil {
			_ = w.WriteBranch(Branch{PC: 4, Target: 8})
			if cerr := w.Close(); cerr == nil {
				t.Fatal("no error surfaced through a failing writer")
			}
		}
	}
}

func TestWriteFileToBadPath(t *testing.T) {
	if err := WriteFile("/nonexistent-dir-xyz/file.bpt", &Trace{Name: "x"}); err == nil {
		t.Fatal("WriteFile to bad path succeeded")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile("/nonexistent-dir-xyz/file.bpt"); err == nil {
		t.Fatal("ReadFile of missing file succeeded")
	}
}

func TestReaderRejectsHugeName(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte("BPT1"))
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], 1<<20) // unreasonable name length
	buf.Write(tmp[:n])
	if _, err := NewReader(&buf); err == nil {
		t.Fatal("reader accepted a 1MB name length")
	}
}

func TestBatchSourceWindows(t *testing.T) {
	tr := sample()
	bs, ok := tr.NewSource().(BatchSource)
	if !ok {
		t.Fatal("in-memory source does not implement BatchSource")
	}
	buf := make([]Branch, 3)
	var got []Branch
	for {
		chunk := bs.NextBatch(buf)
		if len(chunk) == 0 {
			break
		}
		if len(chunk) > len(buf) {
			t.Fatalf("chunk of %d exceeds buffer %d", len(chunk), len(buf))
		}
		// In-memory batches must be zero-copy windows into the trace.
		if &chunk[0] != &tr.Branches[len(got)] {
			t.Fatalf("chunk at offset %d is not a direct window", len(got))
		}
		got = append(got, chunk...)
	}
	if len(got) != tr.Len() {
		t.Fatalf("batched iteration yielded %d branches, want %d", len(got), tr.Len())
	}
	for i := range got {
		if got[i] != tr.Branches[i] {
			t.Fatalf("branch %d = %+v, want %+v", i, got[i], tr.Branches[i])
		}
	}
}

func TestBatchSourceMixedWithNext(t *testing.T) {
	tr := sample()
	bs := tr.NewSource().(BatchSource)
	if b, ok := bs.Next(); !ok || b != tr.Branches[0] {
		t.Fatalf("Next = %+v, %v", b, ok)
	}
	chunk := bs.NextBatch(make([]Branch, 2))
	if len(chunk) != 2 || chunk[0] != tr.Branches[1] || chunk[1] != tr.Branches[2] {
		t.Fatalf("NextBatch after Next = %+v", chunk)
	}
	if b, ok := bs.Next(); !ok || b != tr.Branches[3] {
		t.Fatalf("Next after NextBatch = %+v, %v", b, ok)
	}
	if chunk := bs.NextBatch(make([]Branch, 2)); len(chunk) != 0 {
		t.Fatalf("exhausted NextBatch returned %d branches", len(chunk))
	}
}

func TestSliceMetadataOverflow(t *testing.T) {
	// Instructions * (hi-lo) overflows uint64 when computed naively:
	// 2^62 instructions over a 1M-branch trace.
	tr := &Trace{Name: "huge", Instructions: 1 << 62}
	tr.Branches = make([]Branch, 1<<20)
	half := tr.Slice(0, tr.Len()/2)
	if want := uint64(1) << 61; half.Instructions != want {
		t.Fatalf("half-slice Instructions = %d, want %d", half.Instructions, want)
	}
	full := tr.Slice(0, tr.Len())
	if full.Instructions != tr.Instructions {
		t.Fatalf("full-slice Instructions = %d, want %d", full.Instructions, tr.Instructions)
	}
	empty := tr.Slice(3, 3)
	if empty.Instructions != 0 {
		t.Fatalf("empty-slice Instructions = %d, want 0", empty.Instructions)
	}
}
