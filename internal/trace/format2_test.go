package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// synthBranches builds n deterministic records with realistic deltas
// (clustered PCs, nearby targets, biased outcomes) plus occasional
// wild jumps so both the small- and large-varint paths encode.
func synthBranches(n int, seed uint64) []Branch {
	out := make([]Branch, n)
	x := seed | 1
	pc := uint64(0x10000)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch x % 7 {
		case 0:
			pc = x // wild jump, exercises 10-byte varints
		default:
			pc += 4 * (x % 64)
		}
		out[i] = Branch{PC: pc, Target: pc + 4*(x%512) - 1024, Taken: x%3 == 0}
	}
	return out
}

func encode2(t *testing.T, tr *Trace, blockLen int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter2(&buf, tr.Name, tr.Instructions, uint64(tr.Len()), blockLen)
	if err != nil {
		t.Fatalf("NewWriter2: %v", err)
	}
	for _, b := range tr.Branches {
		if err := w.WriteBranch(b); err != nil {
			t.Fatalf("WriteBranch: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestBPT2RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, DefaultBlockLen - 1, DefaultBlockLen, DefaultBlockLen + 1, 3*DefaultBlockLen + 17} {
		tr := &Trace{Name: "rt", Instructions: uint64(n) * 5, Branches: synthBranches(n, uint64(n)+1)}
		data := encode2(t, tr, 0)
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("n=%d: NewReader: %v", n, err)
		}
		if _, ok := r.(*reader2); !ok {
			t.Fatalf("n=%d: NewReader returned %T, want the BPT2 reader", n, r)
		}
		if r.Name() != tr.Name || r.Instructions() != tr.Instructions || r.Count() != uint64(n) {
			t.Fatalf("n=%d: header mismatch: %q/%d/%d", n, r.Name(), r.Instructions(), r.Count())
		}
		for i, want := range tr.Branches {
			got, ok := r.Next()
			if !ok {
				t.Fatalf("n=%d: record %d missing: %v", n, i, r.Err())
			}
			if got != want {
				t.Fatalf("n=%d: record %d: %+v != %+v", n, i, got, want)
			}
		}
		if _, ok := r.Next(); ok {
			t.Fatalf("n=%d: spurious record past count", n)
		}
		if r.Err() != nil {
			t.Fatalf("n=%d: Err after clean read: %v", n, r.Err())
		}
	}
}

// TestBPT2NextBatchWindows checks the zero-copy batch path yields the
// same stream for every batch size, including sizes that straddle
// block boundaries.
func TestBPT2NextBatchWindows(t *testing.T) {
	tr := &Trace{Name: "nb", Instructions: 9, Branches: synthBranches(2500, 3)}
	data := encode2(t, tr, 64) // many small blocks
	for _, bs := range []int{1, 3, 63, 64, 65, 200, 4096} {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]Branch, bs)
		var got []Branch
		for {
			chunk := r.NextBatch(buf)
			if len(chunk) == 0 {
				break
			}
			got = append(got, chunk...)
		}
		if r.Err() != nil {
			t.Fatalf("bs=%d: %v", bs, r.Err())
		}
		if len(got) != tr.Len() {
			t.Fatalf("bs=%d: %d records, want %d", bs, len(got), tr.Len())
		}
		for i := range got {
			if got[i] != tr.Branches[i] {
				t.Fatalf("bs=%d: record %d: %+v != %+v", bs, i, got[i], tr.Branches[i])
			}
		}
	}
}

// TestBPT1BPT2Equivalence proves the two encodings of one trace
// decode identically and share a content digest — the property the
// service's transcoding ingest path relies on.
func TestBPT1BPT2Equivalence(t *testing.T) {
	tr := &Trace{Name: "equiv", Instructions: 12345, Branches: synthBranches(3000, 99)}
	var b1 bytes.Buffer
	w1, err := NewWriter(&b1, tr.Name, tr.Instructions, uint64(tr.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.Branches {
		if err := w1.WriteBranch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := encode2(t, tr, 0)

	decode := func(data []byte) *Trace {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		out := &Trace{Name: r.Name(), Instructions: r.Instructions()}
		for {
			b, ok := r.Next()
			if !ok {
				break
			}
			out.Append(b)
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		return out
	}
	d1, d2 := decode(b1.Bytes()), decode(b2)
	if d1.Name != d2.Name || d1.Instructions != d2.Instructions || len(d1.Branches) != len(d2.Branches) {
		t.Fatalf("metadata diverges: %q/%d/%d vs %q/%d/%d",
			d1.Name, d1.Instructions, len(d1.Branches), d2.Name, d2.Instructions, len(d2.Branches))
	}
	for i := range d1.Branches {
		if d1.Branches[i] != d2.Branches[i] {
			t.Fatalf("record %d diverges: %+v != %+v", i, d1.Branches[i], d2.Branches[i])
		}
	}
	if d1.Digest() != d2.Digest() {
		t.Fatal("digest differs between BPT1 and BPT2 decodes of the same trace")
	}
	if d1.Digest() != tr.Digest() {
		t.Fatal("decoded digest differs from source digest")
	}
}

func TestBPT2CorruptionDetected(t *testing.T) {
	tr := &Trace{Name: "crc", Instructions: 1, Branches: synthBranches(300, 7)}
	data := encode2(t, tr, 128)

	drain := func(data []byte) error {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
		return r.Err()
	}
	if err := drain(data); err != nil {
		t.Fatalf("pristine stream: %v", err)
	}
	// Flip one bit in every byte position after the file header; every
	// flip must surface as an error (checksum, chain break, or column
	// shape), never as a silently different decode. Positions inside
	// the footer index are exempt — sequential streaming never reads
	// it. The blocks run from the end of the file header to the
	// footer, whose size (less the 4-byte trailer itself) is the
	// trailing isize.
	hdr := binary.AppendUvarint(bytes.Clone(magic2[:]), uint64(len(tr.Name)))
	hdr = append(hdr, tr.Name...)
	for _, v := range []uint64{tr.Instructions, uint64(tr.Len()), 128} {
		hdr = binary.AppendUvarint(hdr, v)
	}
	if !bytes.HasPrefix(data, hdr) {
		t.Fatalf("encoded stream does not start with the expected %d-byte header", len(hdr))
	}
	start := len(hdr)
	end := len(data) - 4 - int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	if end <= start || !bytes.Equal(data[end:end+4], indexMagic2[:]) {
		t.Fatalf("block region [%d,%d) does not end at the footer index magic", start, end)
	}
	for pos := start; pos < end; pos++ {
		mut := bytes.Clone(data)
		mut[pos] ^= 0x40
		if err := drain(mut); err == nil {
			r, _ := NewReader(bytes.NewReader(mut))
			same := true
			for i := 0; ; i++ {
				b, ok := r.Next()
				if !ok {
					same = same && i == tr.Len()
					break
				}
				if i >= tr.Len() || b != tr.Branches[i] {
					same = false
					break
				}
			}
			if !same {
				t.Fatalf("bit flip at %d decoded differently without an error", pos)
			}
		}
	}
	// Truncations must error, not silently shorten.
	for _, cut := range []int{end - 1, start + 5, len(data) / 2} {
		if err := drain(data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}

func TestBPT2LyingBlockHeader(t *testing.T) {
	// A block claiming more records than the file header's count must
	// be rejected before any column allocation proportional to the lie.
	var buf bytes.Buffer
	buf.Write(magic2[:])
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	put(0) // nameLen
	put(0) // instrs
	put(4) // count
	put(DefaultBlockLen)
	put(1 << 60) // block recs: absurd
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("header should parse: %v", err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("lying block header yielded a record")
	}
	if r.Err() == nil {
		t.Fatal("lying block header produced no error")
	}
}

// TestReadFileSniffsBPT2 checks the whole-file loader transparently
// reads both format versions.
func TestReadFileSniffsBPT2(t *testing.T) {
	tr := &Trace{Name: "sniff", Instructions: 2, Branches: synthBranches(50, 5)}
	dir := t.TempDir()
	p2 := filepath.Join(dir, "t.bpt2")
	if err := WriteFile2(p2, tr, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != tr.Digest() {
		t.Fatal("ReadFile of BPT2 lost content")
	}
}

func TestDigestWriterMatchesTraceDigest(t *testing.T) {
	tr := &Trace{Name: "digest", Instructions: 777, Branches: synthBranches(5000, 11)}
	d := NewDigestWriter(tr.Name, tr.Instructions, uint64(tr.Len()))
	for _, b := range tr.Branches {
		d.WriteBranch(b)
	}
	if d.Sum() != tr.Digest() {
		t.Fatal("streaming digest diverges from Trace.Digest")
	}
	// Empty trace too: only the preamble is hashed.
	e := &Trace{Name: "", Instructions: 0}
	if NewDigestWriter("", 0, 0).Sum() != e.Digest() {
		t.Fatal("streaming digest diverges for the empty trace")
	}
}

// TestWriter2CountContract mirrors the BPT1 writer's promise checks.
func TestWriter2CountContract(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter2(&buf, "c", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close with missing records succeeded")
	}
	if err := w.WriteBranch(Branch{}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBranch(Branch{}); err == nil {
		t.Fatal("overrun write succeeded")
	}
	if _, err := NewWriter2(&buf, "c", 0, 1, maxBlockLen+1); err == nil {
		t.Fatal("oversized blockLen accepted")
	}
}

// TestBPT2SmallerThanBPT1 locks in the size win on a realistic
// stream: dropping the per-record flags byte for bit-packed outcomes
// must shrink the encoding.
func TestBPT2SmallerThanBPT1(t *testing.T) {
	tr := &Trace{Name: "size", Instructions: 1, Branches: synthBranches(20000, 13)}
	var b1 bytes.Buffer
	w1, err := NewWriter(&b1, tr.Name, tr.Instructions, uint64(tr.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.Branches {
		if err := w1.WriteBranch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := encode2(t, tr, 0)
	if len(b2) >= b1.Len() {
		t.Fatalf("BPT2 (%d bytes) not smaller than BPT1 (%d bytes)", len(b2), b1.Len())
	}
}

// TestBPT2CorpusTranscode transcodes the checked-in refmodel corpus
// and verifies digest-preserving round trips — the same operation
// bptrace convert and the service ingest path perform.
func TestBPT2CorpusTranscode(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "refmodel", "testdata", "*.bpt"))
	if err != nil || len(paths) == 0 {
		t.Skipf("no corpus traces: %v", err)
	}
	dir := t.TempDir()
	for _, p := range paths {
		tr, err := ReadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out := filepath.Join(dir, filepath.Base(p)+"2")
		if err := WriteFile2(out, tr, 0); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		back, err := ReadFile(out)
		if err != nil {
			t.Fatalf("%s: %v", out, err)
		}
		if back.Digest() != tr.Digest() {
			t.Fatalf("%s: transcode changed content digest", p)
		}
		st1, _ := os.Stat(p)
		st2, _ := os.Stat(out)
		if st1 != nil && st2 != nil && st2.Size() >= st1.Size() {
			t.Logf("%s: BPT2 %d bytes vs BPT1 %d (corpus traces are tiny; header+index overhead can win)", p, st2.Size(), st1.Size())
		}
	}
}
