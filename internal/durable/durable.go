// Package durable is the one commit path for the program's durable
// files: BPC1 checkpoint ledgers, the service's index.json, jobs.json
// and results/*.json, and the cluster coordinator's incarnation
// counter. Each is rewritten whole through WriteFile, so a reader (or
// a restarted process) sees either the old file or the new one, never
// a torn mix.
//
// The trace store's ingest keeps its own temp file and rename: it
// streams an upload into the temp file, and only once the write is
// done does the content digest exist to decide whether the file is
// renamed into place or dropped as a duplicate. WriteFile and that
// ingest rename are the only places files are committed.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile commits path atomically: write fills a temp file in
// path's directory, which is then closed and renamed over path. On
// any failure — write's error, a failed close, a failed rename — the
// temp file is removed, path is left as it was, and the error is
// returned.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close() // error-path cleanup; the first error wins
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
