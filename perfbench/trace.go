package main

import (
	"os"
	"slices"
	"sync/atomic"
	"time"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/vfs"
)

// Tracing from outside the program: the traced run serves a wrapper of the
// store and hands the WAL a wrapper of its filesystem, and each wrapper
// records a span around every call it forwards. The wire carries no batch
// id, so spans are kept as per-layer duration buffers and summed or ranked
// per layer, not stitched into per-request trees.

// spanBuf collects span durations (and one work count per span) for one
// call site. Recording is lock-free: a slot is claimed with one atomic add;
// spans beyond capacity still count toward calls and totals but keep no
// duration sample.
type spanBuf struct {
	calls atomic.Int64
	ns    atomic.Int64 // summed duration
	work  atomic.Int64 // summed work units (keys, pairs, bytes)
	next  atomic.Int64
	durs  []int64
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{durs: make([]int64, capacity)} }

func (b *spanBuf) record(d time.Duration, work int) {
	b.calls.Add(1)
	b.ns.Add(int64(d))
	b.work.Add(int64(work))
	if i := b.next.Add(1) - 1; i < int64(len(b.durs)) {
		b.durs[i] = int64(d)
	}
}

// samples returns the recorded durations, sorted; call once recording has
// stopped.
func (b *spanBuf) samples() []int64 {
	n := min(b.next.Load(), int64(len(b.durs)))
	s := slices.Clone(b.durs[:n])
	slices.Sort(s)
	return s
}

// tracer owns the span buffers of one traced window.
type tracer struct {
	get, getBatch, set, del, scan *spanBuf
	write, sync                   *spanBuf
}

func newTracer() *tracer {
	const c = 1 << 19 // samples per call site; calls past it still count
	return &tracer{
		get: newSpanBuf(c), getBatch: newSpanBuf(c), set: newSpanBuf(c), del: newSpanBuf(c),
		scan: newSpanBuf(c), write: newSpanBuf(c), sync: newSpanBuf(c),
	}
}

// shardNS is the summed time spent inside the shard layer's spans.
func (t *tracer) shardNS() int64 {
	return t.get.ns.Load() + t.getBatch.ns.Load() + t.set.ns.Load() + t.del.ns.Load() + t.scan.ns.Load()
}

// tracedStore is the store the traced run serves. It embeds *shard.Store,
// so every capability the server probes for (index.Batcher,
// index.ReadPinner, index.Durable, WriteErr, the fencer methods) is
// promoted unchanged; it only interposes the point writes and the read
// handles the server executes requests through.
type tracedStore struct {
	*shard.Store
	p *probe
}

// probe holds the armed tracer; nil records nothing.
type probe struct{ atomic.Pointer[tracer] }

// start returns the armed tracer and the span's start time, or nil.
func (p *probe) start() (*tracer, time.Time) {
	t := p.Load()
	if t == nil {
		return nil, time.Time{}
	}
	return t, time.Now()
}

func (s *tracedStore) Set(key, val []byte) {
	t, t0 := s.p.start()
	s.Store.Set(key, val)
	if t != nil {
		t.set.record(time.Since(t0), 1)
	}
}

func (s *tracedStore) Del(key []byte) bool {
	t, t0 := s.p.start()
	ok := s.Store.Del(key)
	if t != nil {
		t.del.record(time.Since(t0), 1)
	}
	return ok
}

// NewReadHandle implements index.ReadPinner with a traced handle.
func (s *tracedStore) NewReadHandle() index.ReadHandle {
	return &tracedReader{r: s.Store.NewReader(), p: s.p}
}

// tracedReader wraps a pinned shard.Reader; it is both an
// index.BatchHandle and an index.ScanHandle, as shard.Reader is.
type tracedReader struct {
	r *shard.Reader
	p *probe
}

func (h *tracedReader) Get(key []byte) ([]byte, bool) {
	t, t0 := h.p.start()
	v, ok := h.r.Get(key)
	if t != nil {
		t.get.record(time.Since(t0), 1)
	}
	return v, ok
}

func (h *tracedReader) GetBatch(keys [][]byte) ([][]byte, []bool) {
	t, t0 := h.p.start()
	vals, found := h.r.GetBatch(keys)
	if t != nil {
		t.getBatch.record(time.Since(t0), len(keys))
	}
	return vals, found
}

func (h *tracedReader) Scan(start []byte, fn func(key, val []byte) bool) {
	h.scanSpan(h.r.Scan, start, fn)
}

func (h *tracedReader) ScanDesc(start []byte, fn func(key, val []byte) bool) {
	h.scanSpan(h.r.ScanDesc, start, fn)
}

// scanSpan times one scan, counting the pairs it visited. The span covers
// the server's per-pair callback too (response encoding), which runs inside
// the scan.
func (h *tracedReader) scanSpan(scan func([]byte, func(k, v []byte) bool), start []byte, fn func(k, v []byte) bool) {
	t, t0 := h.p.start()
	if t == nil {
		scan(start, fn)
		return
	}
	pairs := 0
	scan(start, func(k, v []byte) bool {
		pairs++
		return fn(k, v)
	})
	t.scan.record(time.Since(t0), pairs)
}

func (h *tracedReader) Close() { h.r.Close() }

// tracedFS wraps the WAL's filesystem and times file writes and syncs
// while its probe is armed; disarmed, it costs one atomic load per call.
// It is installed at shard.Open, so set-up and the untraced window of a
// traced run go through it with recording off.
type tracedFS struct {
	vfs.FS
	p *probe
}

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

func (f *tracedFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

type tracedFile struct {
	vfs.File
	fs *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	t, t0 := f.fs.p.start()
	n, err := f.File.Write(p)
	if t != nil {
		t.write.record(time.Since(t0), n)
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	t, t0 := f.fs.p.start()
	err := f.File.Sync()
	if t != nil {
		t.sync.record(time.Since(t0), 1)
	}
	return err
}
