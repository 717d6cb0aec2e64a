package main

import (
	"context"
	"sync/atomic"
	"time"

	"libbat"
	"libbat/internal/obs"
	"libbat/internal/pfs"
)

// timedStore is the traced run's pfs.Storage decorator: it counts and
// times every operation and records a span for it on the current lane
// (the session or write the benchmark is running). It implements the
// context-aware extensions by forwarding through pfs.OpenContext and
// pfs.ReadAtContext, so the wrapped store's own CtxOpener/CtxReaderAt
// behaviour is unchanged.
type timedStore struct {
	libbat.Storage
	col  *obs.Collector
	lane *atomic.Int64

	writeCalls, writeBytes, writeNs atomic.Int64
	openCalls                       atomic.Int64
	readCalls, readBytes, readNs    atomic.Int64
}

// pfsCounts is a snapshot of a timedStore's counters.
type pfsCounts struct {
	WriteCalls, WriteBytes int64
	Write                  time.Duration
	OpenCalls              int64
	ReadCalls, ReadBytes   int64
	Read                   time.Duration
}

func (s *timedStore) counts() pfsCounts {
	return pfsCounts{
		WriteCalls: s.writeCalls.Load(), WriteBytes: s.writeBytes.Load(), Write: time.Duration(s.writeNs.Load()),
		OpenCalls: s.openCalls.Load(),
		ReadCalls: s.readCalls.Load(), ReadBytes: s.readBytes.Load(), Read: time.Duration(s.readNs.Load()),
	}
}

func (a pfsCounts) sub(b pfsCounts) pfsCounts {
	return pfsCounts{
		WriteCalls: a.WriteCalls - b.WriteCalls, WriteBytes: a.WriteBytes - b.WriteBytes, Write: a.Write - b.Write,
		OpenCalls: a.OpenCalls - b.OpenCalls,
		ReadCalls: a.ReadCalls - b.ReadCalls, ReadBytes: a.ReadBytes - b.ReadBytes, Read: a.Read - b.Read,
	}
}

func (s *timedStore) span(name string) *obs.Span { return s.col.Start(int(s.lane.Load()), name) }

func (s *timedStore) WriteFile(name string, data []byte) error {
	sp := s.span("pfs.WriteFile")
	start := time.Now()
	err := s.Storage.WriteFile(name, data)
	s.writeNs.Add(int64(time.Since(start)))
	sp.End()
	s.writeCalls.Add(1)
	s.writeBytes.Add(int64(len(data)))
	return err
}

func (s *timedStore) Open(name string) (pfs.File, error) {
	return s.OpenCtx(context.Background(), name)
}

func (s *timedStore) OpenCtx(ctx context.Context, name string) (pfs.File, error) {
	sp := s.span("pfs.Open")
	f, err := pfs.OpenContext(ctx, s.Storage, name)
	sp.End()
	s.openCalls.Add(1)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, s: s}, nil
}

type timedFile struct {
	pfs.File
	s *timedStore
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	return f.ReadAtCtx(context.Background(), p, off)
}

func (f *timedFile) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	sp := f.s.span("pfs.ReadAt")
	start := time.Now()
	n, err := pfs.ReadAtContext(ctx, f.File, p, off)
	f.s.readNs.Add(int64(time.Since(start)))
	sp.End()
	f.s.readCalls.Add(1)
	f.s.readBytes.Add(int64(n))
	return n, err
}
