package main

import (
	"sync"
	"sync/atomic"

	"lstore"
)

// Timing wrappers on the sinks the benchmark hands the engine. Each counts
// calls, nanoseconds and bytes (always on — two clock reads beside an fsync
// or a pread are noise) and records a span while tracing.

type sinkCounter struct {
	calls, ns, bytes atomic.Int64
}

func (c *sinkCounter) add(ns int64, bytes int) {
	c.calls.Add(1)
	c.ns.Add(ns)
	c.bytes.Add(int64(bytes))
}

// walSink wraps the WAL's file sink. It forwards Sync and DropPrefix, so the
// logger still sees a syncing, truncatable sink, and it remembers how many
// retained bytes the last successful Sync covered: that prefix is all a
// crash would leave behind.
type walSink struct {
	inner *lstore.WALFile
	tc    *traceCtl

	write, sync sinkCounter

	mu      sync.Mutex
	written int64 // guarded by mu; retained bytes handed to Write
	synced  int64 // guarded by mu; retained bytes covered by a successful Sync
}

func (w *walSink) Write(p []byte) (int, error) {
	t0 := nanos()
	n, err := w.inner.Write(p)
	t1 := nanos()
	w.mu.Lock()
	w.written += int64(n)
	w.mu.Unlock()
	w.write.add(t1-t0, n)
	w.tc.sinkSpan(spWALWrite, t0, t1)
	return n, err
}

func (w *walSink) Sync() error {
	w.mu.Lock()
	covered := w.written
	w.mu.Unlock()
	t0 := nanos()
	err := w.inner.Sync()
	t1 := nanos()
	if err == nil {
		w.mu.Lock()
		w.synced = max(w.synced, covered)
		w.mu.Unlock()
	}
	w.sync.add(t1-t0, 0)
	w.tc.sinkSpan(spWALSync, t0, t1)
	return err
}

func (w *walSink) DropPrefix(n int64) error {
	err := w.inner.DropPrefix(n)
	if err == nil {
		w.mu.Lock()
		w.written -= n
		w.synced = max(w.synced-n, 0)
		w.mu.Unlock()
	}
	return err
}

func (w *walSink) syncedLen() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

// spillSink wraps the spill file behind the buffer pool: ReadAt is a pool
// miss's device read, Append a sealed or merged page going out.
type spillSink struct {
	inner lstore.SpillSink
	tc    *traceCtl

	read, append sinkCounter
}

func (s *spillSink) Append(p []byte) (lstore.SpillDesc, error) {
	t0 := nanos()
	d, err := s.inner.Append(p)
	t1 := nanos()
	s.append.add(t1-t0, len(p))
	s.tc.sinkSpan(spSpillAppend, t0, t1)
	return d, err
}

func (s *spillSink) ReadAt(d lstore.SpillDesc) ([]byte, error) {
	t0 := nanos()
	p, err := s.inner.ReadAt(d)
	t1 := nanos()
	s.read.add(t1-t0, len(p))
	s.tc.sinkSpan(spSpillRead, t0, t1)
	return p, err
}

func (s *spillSink) Sync() error { return s.inner.Sync() }

// ckptSink wraps a checkpoint sink and keeps every round's sink interval,
// so the report can tell transactions that ran beside a round from the rest.
type ckptSink struct {
	inner lstore.CheckpointSink
	tc    *traceCtl

	mu     sync.Mutex
	rounds []ckptRound // guarded by mu
}

type ckptRound struct {
	start, end int64 // ns since epoch: the sink call, not the image build
	bytes      int
}

func (c *ckptSink) Checkpoint(image []byte, info lstore.CheckpointInfo) error {
	t0 := nanos()
	err := c.inner.Checkpoint(image, info)
	t1 := nanos()
	if err == nil {
		c.mu.Lock()
		c.rounds = append(c.rounds, ckptRound{start: t0, end: t1, bytes: len(image)})
		c.mu.Unlock()
	}
	c.tc.sinkSpan(spCkptSink, t0, t1)
	return err
}

func (c *ckptSink) all() []ckptRound {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ckptRound(nil), c.rounds...)
}
