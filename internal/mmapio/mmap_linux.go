//go:build linux

// Package mmapio memory-maps files for read access, the access mode the
// paper uses for visualization reads (§V): the OS page cache serves
// frequently accessed regions and the 4 KB-aligned treelets map to whole
// pages. On platforms without mmap support the package falls back to
// pread-style access.
package mmapio

import (
	"fmt"
	"io"
	"os"
	"syscall"
)

// Mapping is a read-only memory-mapped file.
type Mapping struct {
	data []byte
	f    *os.File
}

// Supported reports whether true memory mapping is available.
func Supported() bool { return true }

// Open maps the file at path read-only.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		return &Mapping{f: f}, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()),
		syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("mmapio: mmap %s: %w", path, err)
	}
	return &Mapping{data: data, f: f}, nil
}

// Bytes returns the mapped contents. The slice is invalid after Close.
func (m *Mapping) Bytes() []byte { return m.data }

// Size returns the mapped length.
func (m *Mapping) Size() int64 { return int64(len(m.data)) }

// ReadAt implements io.ReaderAt over the mapping.
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

// Close unmaps and closes the file. Further calls are no-ops.
func (m *Mapping) Close() error {
	var err error
	if m.data != nil {
		err = syscall.Munmap(m.data)
		m.data = nil
	}
	if m.f != nil {
		if cerr := m.f.Close(); err == nil {
			err = cerr
		}
		m.f = nil
	}
	return err
}
