package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// entries lists dir's file names, so a test can see a leftover temp.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestWriteFileCommits(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	for _, content := range []string{"first", "second, longer"} {
		if err := WriteFile(path, writeString(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("file holds %q, want %q", got, content)
		}
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v, want only f.json", names)
	}
}

func TestWriteFileFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the new"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile = %v, want the write error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Fatalf("failed write changed the file to %q", got)
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Fatalf("failed write left %v, want only f.json", names)
	}
}

func TestWriteFileRenameFailure(t *testing.T) {
	dir := t.TempDir()
	// A non-empty directory at the target path makes the rename fail
	// after the temp file is fully written and closed.
	path := filepath.Join(dir, "target")
	if err := os.MkdirAll(filepath.Join(path, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, writeString("new")); err == nil {
		t.Fatal("rename over a directory succeeded")
	}
	st, err := os.Stat(path)
	if err != nil || !st.IsDir() {
		t.Fatalf("target no longer the original directory: %v, %v", st, err)
	}
	if names := entries(t, dir); len(names) != 1 || names[0] != "target" {
		t.Fatalf("failed rename left %v, want only target", names)
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent", "f.json")
	if err := WriteFile(path, writeString("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
