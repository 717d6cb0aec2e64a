//go:build !linux

// Fallback implementation for platforms without syscall.Mmap: the file is
// read into memory once, giving the same interface without page-level
// laziness.
package mmapio

import (
	"io"
	"os"
)

// Mapping is a read-only file image.
type Mapping struct {
	data []byte
}

// Supported reports whether true memory mapping is available.
func Supported() bool { return false }

// Open loads the file at path.
func Open(path string) (*Mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Mapping{data: data}, nil
}

// Bytes returns the file contents.
func (m *Mapping) Bytes() []byte { return m.data }

// Size returns the content length.
func (m *Mapping) Size() int64 { return int64(len(m.data)) }

// ReadAt implements io.ReaderAt.
func (m *Mapping) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Close releases the contents.
func (m *Mapping) Close() error {
	m.data = nil
	return nil
}
