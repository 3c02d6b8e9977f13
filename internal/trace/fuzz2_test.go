package trace

import (
	"bytes"
	"path/filepath"
	"testing"
)

// FuzzReader2 checks the BPT2 block decoder never panics or loops on
// arbitrary input. Seeds cover a valid multi-block stream, transcoded
// traces from the checked-in refmodel corpus, header fragments, and
// truncations landing inside a block.
func FuzzReader2(f *testing.F) {
	tr := &Trace{Name: "seed2", Instructions: 42, Branches: synthBranches(300, 17)}
	var buf bytes.Buffer
	w, err := NewWriter2(&buf, tr.Name, tr.Instructions, uint64(tr.Len()), 64)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range tr.Branches {
		if err := w.WriteBranch(b); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:40])
	f.Add([]byte("BPT2"))
	f.Add([]byte{})
	f.Add([]byte("BPT2\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	if paths, err := filepath.Glob(filepath.Join("..", "refmodel", "testdata", "*.bpt")); err == nil {
		for _, p := range paths {
			src, err := ReadFile(p)
			if err != nil {
				continue
			}
			var tb bytes.Buffer
			w2, err := NewWriter2(&tb, src.Name, src.Instructions, uint64(src.Len()), 0)
			if err != nil {
				continue
			}
			for _, b := range src.Branches {
				if err := w2.WriteBranch(b); err != nil {
					break
				}
			}
			if err := w2.Close(); err == nil {
				f.Add(tb.Bytes())
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The promised count bounds iteration; add our own cap as a
		// belt against decoder bugs.
		for i := 0; i < 1<<20; i++ {
			if _, ok := r.Next(); !ok {
				break
			}
		}
	})
}

// FuzzRoundTrip2 checks arbitrary branch content and block geometry
// written by the BPT2 encoder decode to identical records.
func FuzzRoundTrip2(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x1100), true, uint64(0x1008), uint64(0x0F00), false, 2)
	f.Add(uint64(0), uint64(0), false, ^uint64(0), uint64(1), true, 1)
	f.Fuzz(func(t *testing.T, pc1, tgt1 uint64, tk1 bool, pc2, tgt2 uint64, tk2 bool, blockLen int) {
		if blockLen < 1 || blockLen > maxBlockLen {
			blockLen = 1 + (blockLen&0x7fffffff)%maxBlockLen
		}
		in := []Branch{
			{PC: pc1, Target: tgt1, Taken: tk1},
			{PC: pc2, Target: tgt2, Taken: tk2},
			{PC: pc1 ^ pc2, Target: tgt1 ^ tgt2, Taken: tk1 != tk2},
		}
		var buf bytes.Buffer
		w, err := NewWriter2(&buf, "fuzz2", 7, uint64(len(in)), blockLen)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range in {
			if err := w.WriteBranch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range in {
			got, ok := r.Next()
			if !ok {
				t.Fatalf("record %d missing: %v", i, r.Err())
			}
			if got != want {
				t.Fatalf("record %d: %+v != %+v", i, got, want)
			}
		}
		if _, ok := r.Next(); ok || r.Err() != nil {
			t.Fatalf("stream did not end cleanly: %v", r.Err())
		}
	})
}
