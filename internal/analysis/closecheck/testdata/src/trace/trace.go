// Package trace is a minimal stand-in for the trace codec: OpenFile
// returns a reader its caller must Close.
package trace

// FileReader streams an opened trace file.
type FileReader struct{ off int }

// OpenFile opens a trace file.
func OpenFile(path string) (*FileReader, error) { return &FileReader{}, nil }

// Close releases the file.
func (fr *FileReader) Close() error { return nil }

// Next advances the reader.
func (fr *FileReader) Next() { fr.off++ }
