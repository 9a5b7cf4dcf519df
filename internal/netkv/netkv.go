// Package netkv is the networked key-value store used to reproduce Figure
// 12. The paper ports its indexes into HERD, an RDMA key-value service on
// 100 Gb/s InfiniBand, and issues requests in batches of 800. Offline and
// without RDMA hardware, this package substitutes a length-prefixed binary
// protocol over TCP (loopback in the benchmarks) with the same batching
// discipline: the network adds a per-batch cost while the per-operation
// cost stays dominated by the host-side index — the property Figure 12
// demonstrates (and, as in the paper, large values such as K10's 1 KB keys
// shift the bottleneck to the wire).
package netkv

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/wal"
)

// Op codes.
const (
	OpGet byte = iota + 1
	OpSet
	OpDel
	OpScan
	OpScanDesc
	// OpFlush asks a durable server to force every logged mutation to
	// stable storage before responding — the wire-level fsync barrier a
	// client issues after a batch it cannot afford to lose. Servers
	// hosting a volatile index answer StatusNotFound; a failed flush
	// answers StatusErr.
	OpFlush
	// OpStat returns a JSON Stat document (key count, WAL size, current
	// generations, replication role and lag) as a Get-shaped response, so
	// replication health is observable on the wire instead of by scraping
	// logs.
	OpStat
	// OpSubscribe is the replication handshake: a follower sends it as a
	// batch's only request (the key carries the negotiation payload) and,
	// on a leader, the connection leaves the request/response protocol and
	// becomes a replication stream (internal/repl's framing). Servers
	// without a replication source answer StatusNotFound.
	OpSubscribe
	// OpFence tells a server that a higher replication epoch exists (the
	// key carries it, 8 bytes little-endian): a stale leader flips into
	// fenced read-only mode before answering, so no write can land after
	// the fence is acknowledged. Best-effort — fencing also happens on
	// first replication contact with the new lineage — and idempotent.
	// Servers whose index has no epochs answer StatusNotFound.
	OpFence
)

// Status codes.
const (
	StatusOK byte = iota
	StatusNotFound
	// StatusErr reports a server-side failure (e.g. a flush I/O error).
	// A write answered StatusErr because its durability wait failed is
	// applied in memory, but whether a restart keeps it is unknown.
	StatusErr
	// StatusReadOnly rejects a mutation on a replication follower: writes
	// belong on the leader until the follower is promoted.
	StatusReadOnly
	// StatusDegraded rejects a mutation whose owning shard is in degraded
	// read-only mode: its WAL cannot log new writes (full disk, failed
	// fsync), so accepting them would widen the unrecoverable window.
	// Reads keep serving; the shard heals itself in the background and
	// writes resume without a restart.
	StatusDegraded
	// StatusFenced rejects a mutation on a stale leader: a higher
	// replication epoch exists, the refusal happens BEFORE the index
	// mutates, and — unlike a transport error — it proves the operation
	// was not applied, so a client may safely resend it to the new leader.
	StatusFenced
)

// DefaultBatch is the paper's request batch size for Figure 12.
const DefaultBatch = 800

// maxFrame bounds a frame's length field, in both directions: a reader
// drops the connection on a longer one, so the server shapes every
// response to fit (see executor.budget).
const maxFrame = 64 << 20

// maxScanPairs is the most pairs one scan response can carry: its pair
// count is a uint16 on the wire.
const maxScanPairs = 1<<16 - 1

// keepBuf caps the frame buffers a connection keeps between batches, so
// one huge batch does not pin its buffers for the connection's lifetime.
const keepBuf = 1 << 20

// Stat is the OpStat response document. The base fields come from the
// served index; replication roles fill in their sections through
// ServerOptions.StatFill (leader: Followers; follower: Applied/LeaderEnd/
// LagRecords).
type Stat struct {
	Role     string `json:"role"`
	ReadOnly bool   `json:"read_only"`
	Keys     int64  `json:"keys"`
	Shards   int    `json:"shards,omitempty"`
	Durable  bool   `json:"durable"`
	// WALBytes is the framed length of the active WAL generations (the
	// replay cost of a crash right now); Gens the per-shard active
	// generation numbers.
	WALBytes int64    `json:"wal_bytes,omitempty"`
	Gens     []uint64 `json:"gens,omitempty"`
	// Health is each shard's degradation status (degraded flag, sticky
	// error, heal attempts) — the observable face of the degraded-mode
	// state machine.
	Health []wal.Health `json:"health,omitempty"`

	// Epoch is the served store's replication epoch; FencedBy, when
	// non-zero, is the higher epoch that fenced it (the node refuses
	// writes with StatusFenced). Together they answer "who is fenced, and
	// by whom" from either side of a failover.
	Epoch    uint64 `json:"epoch,omitempty"`
	FencedBy uint64 `json:"fenced_by,omitempty"`
	// LeaderEpoch is the highest leader epoch a follower has observed.
	LeaderEpoch uint64 `json:"leader_epoch,omitempty"`

	// Leader fields.
	Followers []FollowerStat `json:"followers,omitempty"`

	// Follower fields.
	Leader           string         `json:"leader,omitempty"`
	Applied          []wal.Position `json:"applied,omitempty"`
	LeaderEnd        []wal.Position `json:"leader_end,omitempty"`
	LagRecords       *int64         `json:"lag_records,omitempty"` // -1: spans a rotation, uncountable
	SnapshotsApplied int64          `json:"snapshots_applied,omitempty"`
	Connected        bool           `json:"connected,omitempty"`

	// Process runtime fields: uptime, toolchain and heap/GC gauges, so a
	// bare `whkv stat` answers "how long has it been up and how is the
	// runtime doing" without a metrics scrape.
	UptimeS        int64  `json:"uptime_s,omitempty"`
	GoVersion      string `json:"go_version,omitempty"`
	Goroutines     int    `json:"goroutines,omitempty"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes,omitempty"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes,omitempty"`
	GCCycles       uint32 `json:"gc_cycles,omitempty"`
	// SlowOps counts operations traced by the slow-op tracer since start
	// (0 when tracing is disarmed).
	SlowOps uint64 `json:"slow_ops,omitempty"`
}

// FollowerStat is one subscriber's lag as the leader sees it.
type FollowerStat struct {
	Remote string `json:"remote"`
	// LagRecords counts records streamed but not yet acked (-1 when a
	// shard's sent and acked positions span a generation rotation).
	LagRecords int64 `json:"lag_records"`
	// AckAgeMS is how long ago the last ack arrived.
	AckAgeMS int64          `json:"ack_age_ms"`
	Acked    []wal.Position `json:"acked,omitempty"`
	// SnapshotsSent counts shard snapshot catch-ups streamed to this
	// follower.
	SnapshotsSent int64 `json:"snapshots_sent,omitempty"`
}

// ServerOptions configures the replication-aware pieces of a Server; the
// zero value is a plain standalone server (what Serve uses).
type ServerOptions struct {
	// ReadOnly starts the server rejecting Set and Del with
	// StatusReadOnly — follower mode. SetReadOnly flips it at promotion.
	ReadOnly bool
	// Role labels OpStat responses ("standalone" when empty); StatFill may
	// override it.
	Role string
	// Subscribe, when non-nil, takes over a connection whose batch is a
	// single OpSubscribe request, with the request key as payload; the
	// connection is the callee's to consume until it returns (the
	// replication stream). Nil servers answer StatusNotFound.
	Subscribe func(conn net.Conn, r *bufio.Reader, w *bufio.Writer, payload []byte)
	// StatFill, when non-nil, adds role-specific fields to each OpStat
	// response.
	StatFill func(*Stat)
	// ReadTimeout, when non-zero, bounds how long a connection may sit
	// between batches (and how long one batch may take to arrive): the
	// read deadline is re-armed before each batch read, so a hung or idle
	// client is dropped instead of holding a handler goroutine forever.
	ReadTimeout time.Duration
	// WriteTimeout, when non-zero, bounds each response flush: a client
	// that stops draining its socket is dropped instead of blocking the
	// handler on a full send buffer.
	WriteTimeout time.Duration
	// MaxInflight, when non-zero, caps concurrently-processing batches
	// server-wide. Excess batches wait their turn after being read —
	// backpressure degrades latency smoothly instead of letting load
	// spikes pile unbounded work onto the index.
	MaxInflight int
	// Metrics, when non-nil, arms per-operation counters, latency
	// histograms and the slow-op tracer (NewServerMetrics). Nil costs
	// nothing: the serving path never reads the clock.
	Metrics *ServerMetrics
}

// Request is one operation in a batch.
type Request struct {
	Op    byte
	Key   []byte
	Val   []byte // Set: value; Scan: unused
	Limit uint32 // Scan only
}

// Response is one operation's result.
type Response struct {
	Status byte
	Val    []byte
	// Scan results.
	Keys, Vals [][]byte
}

// fencer is the epoch-fencing surface a served index may expose (the
// sharded durable store does). FenceErr is the refuse-early write check —
// non-nil exactly when a higher epoch has fenced the store — kept separate
// from WriteErr so StatusFenced (definitively not applied, safe to resend
// to the new leader) never blurs into StatusDegraded (local I/O trouble).
type fencer interface {
	FenceErr() error
	Fence(epoch uint64) error
	Epoch() uint64
	FencedBy() uint64
}

// Server serves an index.Index over TCP. Each connection's goroutine
// executes its own batches inline (see executor): point operations are
// grouped by owning shard when the index is a sharded store
// (index.Batcher), so every operation on one shard — and hence on one key
// — keeps its batch order, and each shard's runs of Gets go through one
// batched lookup.
//
// When the index supports pinned readers (index.ReadPinner), every
// connection claims one read handle for its lifetime, so a served GET
// pays the index's per-reader registration once per connection instead
// of once per request — the paper's §2.5 lock-free readers amortized
// across the wire. Range operations (SCAN, SCANDESC) go through the same
// handle when it supports scans (index.ScanHandle), so they ride the
// lock-free scan path too, and so do writes when it defers their
// durability wait (index.WriteHandle): a run of a batch's writes then
// waits once per shard, and the response that acknowledges them is
// written after that wait.
type Server struct {
	ix  index.Index
	bx  index.Batcher // non-nil when ix is a store of several shards
	rp  index.ReadPinner
	dx  index.Durable // non-nil when ix persists (serves OpFlush)
	opt ServerOptions
	ro  atomic.Bool // mutations answer StatusReadOnly while set
	ln  net.Listener
	mu  sync.Mutex
	wg  sync.WaitGroup
	cls bool

	// wh is the index's degraded-mode surface (the sharded durable
	// store); nil when the index has none.
	wh interface{ WriteErr(key []byte) error }
	// fc is the index's epoch-fencing surface; nil when the index has no
	// replication epochs.
	fc fencer
	// sem is the MaxInflight semaphore; nil means uncapped.
	sem chan struct{}
	// mx is the armed instrument bundle (opt.Metrics); nil records
	// nothing. start feeds OpStat's uptime.
	mx    *ServerMetrics
	start time.Time
}

// Serve starts a plain server on addr (e.g. "127.0.0.1:0") and returns
// it; the chosen address is available via Addr.
func Serve(addr string, ix index.Index) (*Server, error) {
	return ServeOpts(addr, ix, ServerOptions{})
}

// ServeOpts starts a server with replication-aware options: read-only
// followers, an OpSubscribe hook, and OpStat enrichment. When the options
// wire a Subscribe hook, whoever owns that hook (the replication source)
// must be closed before the server: Close waits for connection handlers,
// and a subscriber's handler only returns when its stream dies.
func ServeOpts(addr string, ix index.Index, opt ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := newServer(ix, opt)
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// newServer resolves the index's capabilities into a server that is not
// yet listening.
func newServer(ix index.Index, opt ServerOptions) *Server {
	s := &Server{ix: ix, opt: opt, mx: opt.Metrics, start: time.Now()}
	s.ro.Store(opt.ReadOnly)
	if opt.MaxInflight > 0 {
		s.sem = make(chan struct{}, opt.MaxInflight)
	}
	if rp, ok := ix.(index.ReadPinner); ok {
		s.rp = rp
	}
	if wh, ok := ix.(interface{ WriteErr(key []byte) error }); ok {
		s.wh = wh
	}
	if fc, ok := ix.(fencer); ok {
		s.fc = fc
	}
	if dx, ok := ix.(index.Durable); ok {
		s.dx = dx
		// A store can implement the lifecycle yet be volatile (the sharded
		// store created without a directory): its Flush is a vacuous no-op,
		// and clients deserve StatusNotFound, not a fake durability ack.
		if v, ok := ix.(interface{ Durable() bool }); ok && !v.Durable() {
			s.dx = nil
		}
	}
	if bx, ok := ix.(index.Batcher); ok && bx.NumShards() > 1 {
		s.bx = bx
	}
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetReadOnly flips mutation rejection at runtime — promotion of a
// follower to a writable standalone store flips it off.
func (s *Server) SetReadOnly(ro bool) { s.ro.Store(ro) }

// Close stops the listener and waits for connection handlers to finish
// their in-flight batches. Idempotent: a second Close returns nil. The
// server does not own the index; closing a durable index is its creator's
// job, after Close returns.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.cls {
		s.mu.Unlock()
		return nil
	}
	s.cls = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cls
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	// A panic while serving this connection (a corrupt request tripping an
	// index edge case, a bug in a handler) drops the connection, never the
	// process: every other connection keeps serving.
	defer func() { recover() }()
	if s.mx != nil {
		s.mx.conns.Inc()
		defer s.mx.conns.Dec()
	}
	r := bufio.NewReaderSize(conn, 1<<20)
	e := s.newExecutor()
	if e.h != nil {
		defer e.h.Close()
	}
	for {
		if s.opt.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opt.ReadTimeout))
		}
		reqs, err := e.read(r)
		if err != nil {
			return // EOF, deadline or protocol error: drop the connection
		}
		if len(reqs) == 1 && reqs[0].Op == OpSubscribe && s.opt.Subscribe != nil {
			// The connection now belongs to the replication stream: long
			// idle stretches are its normal state, so the per-batch
			// deadlines must not apply.
			conn.SetDeadline(time.Time{})
			s.mx.record(OpSubscribe, StatusOK, nil, 0)
			if s.mx != nil {
				s.mx.subscribers.Inc()
			}
			s.opt.Subscribe(conn, r, bufio.NewWriterSize(conn, 1<<20), reqs[0].Key)
			if s.mx != nil {
				s.mx.subscribers.Dec()
			}
			return
		}
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
			default:
				// The cap is full: this batch waits its turn. Count the wait
				// so operators can see backpressure engaging before latency
				// SLOs notice it.
				if s.mx != nil {
					s.mx.bpWaits.Inc()
					s.mx.bpWaiting.Inc()
				}
				s.sem <- struct{}{}
				if s.mx != nil {
					s.mx.bpWaiting.Dec()
				}
			}
		}
		var t0 time.Time
		if s.mx != nil {
			t0 = time.Now()
			s.mx.inflight.Inc()
		}
		frame := e.exec(reqs)
		// Count the batch before answering it: a client that has its
		// response must find it in the next scrape.
		if s.mx != nil {
			s.mx.inflight.Dec()
			s.mx.batches.Inc()
			s.mx.batchOps.Add(uint64(len(reqs)))
			s.mx.batchSeconds.Observe(time.Since(t0))
		}
		if s.opt.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.opt.WriteTimeout))
		}
		_, err = conn.Write(frame)
		if s.sem != nil {
			<-s.sem
		}
		if err != nil || s.closed() {
			return
		}
		if cap(e.frame) > keepBuf || cap(e.out) > keepBuf {
			e.frame, e.out = nil, nil
		}
	}
}

// refuse returns the status that refuses a write to key, or StatusOK
// when the write may apply. Writes are refused BEFORE the index mutates.
// The fence check runs first: a stale leader must refuse every write
// once it knows a higher epoch exists, and the refusal proves
// non-application, so clients can resend to the new leader. A write the
// WAL cannot log (degraded) must not land in memory either, or reads
// would serve state that a restart loses.
func (s *Server) refuse(key []byte) byte {
	switch {
	case s.fc != nil && s.fc.FenceErr() != nil:
		return StatusFenced
	case s.ro.Load():
		return StatusReadOnly
	case s.wh != nil && s.wh.WriteErr(key) != nil:
		return StatusDegraded
	}
	return StatusOK
}

// ownKV copies a Set's key and value into one allocation: the request
// slices alias the connection's frame buffer, which the next batch
// overwrites, and the index retains what it is given. The key's capacity
// ends at its length, so nothing appended to it can reach the value.
func ownKV(key, val []byte) ([]byte, []byte) {
	b := make([]byte, len(key)+len(val))
	n := copy(b, key)
	copy(b[n:], val)
	return b[:n:n], b[n:]
}

// stat assembles the OpStat document from the served index plus the
// options' role-specific filler.
func (s *Server) stat() *Stat {
	st := &Stat{
		Role:     s.opt.Role,
		ReadOnly: s.ro.Load(),
		Keys:     s.ix.Count(),
		Durable:  s.dx != nil,
	}
	if st.Role == "" {
		st.Role = "standalone"
	}
	if s.bx != nil {
		st.Shards = s.bx.NumShards()
	} else if b, ok := s.ix.(index.Batcher); ok {
		st.Shards = b.NumShards()
	}
	if wb, ok := s.ix.(interface{ WALBytes() int64 }); ok {
		st.WALBytes = wb.WALBytes()
	}
	if g, ok := s.ix.(interface{ Gens() []uint64 }); ok {
		st.Gens = g.Gens()
	}
	if hl, ok := s.ix.(interface{ Health() []wal.Health }); ok {
		st.Health = hl.Health()
	}
	if s.fc != nil {
		st.Epoch = s.fc.Epoch()
		st.FencedBy = s.fc.FencedBy()
	}
	st.UptimeS = int64(time.Since(s.start).Seconds())
	st.GoVersion = runtime.Version()
	st.Goroutines = runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // stat is a rare, operator-driven request
	st.HeapAllocBytes = ms.HeapAlloc
	st.HeapSysBytes = ms.HeapSys
	st.GCCycles = ms.NumGC
	if s.mx != nil && s.mx.Slow != nil {
		st.SlowOps = s.mx.Slow.Total()
	}
	if s.opt.StatFill != nil {
		s.opt.StatFill(st)
	}
	return st
}

// executor runs one connection's batches on the connection's goroutine.
// A batch executes as maximal runs of point operations (Get, Set, Del)
// separated by barriers (Scan, ScanDesc, Flush, Fence, Stat), which run
// alone and in batch order. Within a run, operations are grouped by
// owning shard in batch order, and each group's maximal runs of Gets go
// through one batched lookup on the connection's handle; a Set or Del
// ends a Get run, so every key's operations keep their program order.
// When the handle writes with a deferred commit (index.WriteHandle), a
// run's Sets and Dels apply through it and the run ends with one commit,
// so a batch's writes to one shard share one durability wait.
//
// Everything a batch needs besides the index — the request frame, the
// decoded requests, the shard groups, the result slots and the encoded
// response — is per-connection scratch reused from batch to batch, so a
// steady stream of Get batches allocates nothing on the server.
type executor struct {
	s  *Server
	h  index.ReadHandle  // the connection's pinned reader; nil without one
	bh index.BatchHandle // h's batched lookup; nil when it has none
	// wr is h's deferred-commit write path; nil when it has none. Then
	// set and del are wr's, and every run of point operations ends with
	// one wr.Commit before any of its answers is encoded (see commit).
	// Otherwise they are the index's, and each write waits for its own
	// durability.
	wr  index.WriteHandle
	set func(key, val []byte)
	del func(key []byte) bool

	hdr    [6]byte
	frame  []byte // the request frame; requests alias it
	reqs   []Request
	groups [][]int  // per-shard request indexes of the current run
	keys   [][]byte // one Get run's keys
	res    []result // point results, by request index
	out    []byte   // the response frame: header, then body
	next   int      // position in the group being run; see runGroup
	budget int      // body bytes still free beyond every answer's fixed part

	// The range scans, through h when it can scan (the lock-free scan path
	// amortized per connection, like Gets) and otherwise through the
	// index; nil when the index has no scan in that direction. scanFn is
	// their callback, bound once, so a scan allocates no closure.
	asc, desc        func(start []byte, fn func(k, v []byte) bool)
	scanFn           func(k, v []byte) bool
	scanN, scanLimit int
}

// result is one point operation's answer; a Get's carries a value
// section even when not found. d is the operation's latency, kept for a
// deferred write's record.
type result struct {
	status byte
	val    []byte
	d      time.Duration
}

// newExecutor claims the connection's pinned read handle, when the index
// has an amortized read path; the caller closes it.
func (s *Server) newExecutor() *executor {
	e := &executor{s: s, groups: make([][]int, 1), set: s.ix.Set, del: s.ix.Del}
	if s.rp != nil {
		e.h = s.rp.NewReadHandle()
		e.bh, _ = e.h.(index.BatchHandle)
		if e.wr, _ = e.h.(index.WriteHandle); e.wr != nil {
			e.set, e.del = e.wr.Set, e.wr.Del
		}
	}
	if sh, ok := e.h.(index.ScanHandle); ok {
		e.asc, e.desc = sh.Scan, sh.ScanDesc
	} else {
		if ord, ok := s.ix.(index.Ordered); ok {
			e.asc = ord.Scan
		}
		if od, ok := s.ix.(index.OrderedDesc); ok {
			e.desc = od.ScanDesc
		}
	}
	if s.bx != nil {
		e.groups = make([][]int, s.bx.NumShards())
	}
	e.scanFn = e.scanPair
	return e
}

// read decodes one request frame into the executor's scratch; the
// requests alias the frame buffer until the next read. A frame whose
// counts, lengths or opcodes do not add up is rejected whole, before any
// of it runs. OpSubscribe is valid only as a batch's sole request.
func (e *executor) read(r *bufio.Reader) ([]Request, error) {
	if _, err := io.ReadFull(r, e.hdr[:]); err != nil {
		return nil, err
	}
	frameLen := binary.LittleEndian.Uint32(e.hdr[:4])
	count := int(binary.LittleEndian.Uint16(e.hdr[4:]))
	if frameLen < 2 || frameLen > maxFrame {
		return nil, errors.New("netkv: bad frame length")
	}
	e.frame = slices.Grow(e.frame[:0], int(frameLen-2))[:frameLen-2]
	body := e.frame
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	reqs := e.reqs[:0]
	for i := 0; i < count; i++ {
		var rq Request
		if len(body) < 5 {
			return nil, errors.New("netkv: truncated op")
		}
		rq.Op = body[0]
		if rq.Op < OpGet || rq.Op > OpFence || (rq.Op == OpSubscribe && count != 1) {
			return nil, fmt.Errorf("netkv: bad opcode %d", rq.Op)
		}
		klen := binary.LittleEndian.Uint32(body[1:5])
		body = body[5:]
		// Widen before adding: klen+4 in uint32 wraps for hostile lengths
		// near 2^32, and the resulting body[:klen] would panic the server.
		if uint64(klen)+4 > uint64(len(body)) {
			return nil, errors.New("netkv: truncated key")
		}
		rq.Key = body[:klen]
		body = body[klen:]
		extra := binary.LittleEndian.Uint32(body[:4])
		body = body[4:]
		if rq.Op == OpScan || rq.Op == OpScanDesc {
			rq.Limit = extra
		} else {
			if uint32(len(body)) < extra {
				return nil, errors.New("netkv: truncated value")
			}
			rq.Val = body[:extra]
			body = body[extra:]
		}
		reqs = append(reqs, rq)
	}
	e.reqs = reqs
	return reqs, nil
}

func isPoint(op byte) bool { return op == OpGet || op == OpSet || op == OpDel }

// exec runs one decoded batch and returns its encoded response frame,
// valid until the next exec. The response never exceeds maxFrame: a
// value that would not fit answers StatusErr, and a scan stops early.
func (e *executor) exec(reqs []Request) []byte {
	// Reserve room for every answer's fixed part (at most a status byte
	// and a 4-byte length); values and scanned pairs share the rest.
	e.budget = maxFrame - 2 - 5*len(reqs)
	e.res = slices.Grow(e.res[:0], len(reqs))[:len(reqs)]
	e.out = append(e.out[:0], e.hdr[:]...) // header placeholder
	for i := 0; i < len(reqs); {
		j := i
		for j < len(reqs) && isPoint(reqs[j].Op) {
			j++
		}
		if j > i {
			e.points(reqs, i, j)
			e.commit(reqs, i, j)
			for k := i; k < j; k++ {
				rs := &e.res[k]
				e.out = append(e.out, rs.status)
				if reqs[k].Op == OpGet {
					e.out = binary.LittleEndian.AppendUint32(e.out, uint32(len(rs.val)))
					e.out = append(e.out, rs.val...)
				}
				*rs = result{} // let the index's value go
			}
		}
		if j < len(reqs) {
			e.barrier(&reqs[j])
			j++
		}
		i = j
	}
	binary.LittleEndian.PutUint32(e.out[:4], uint32(len(e.out)-4))
	binary.LittleEndian.PutUint16(e.out[4:6], uint16(len(reqs)))
	return e.out
}

// points executes the point operations reqs[lo:hi], grouped by shard.
func (e *executor) points(reqs []Request, lo, hi int) {
	for g := range e.groups {
		e.groups[g] = e.groups[g][:0]
	}
	for i := lo; i < hi; i++ {
		g := 0
		if e.s.bx != nil {
			g = e.s.bx.ShardOf(reqs[i].Key)
		}
		e.groups[g] = append(e.groups[g], i)
	}
	for _, g := range e.groups {
		if len(g) > 0 {
			e.runGroup(reqs, g)
		}
	}
}

// runGroup executes one shard's operations in order. On a sharded store
// a panic inside the group answers StatusErr for the operations it had
// not finished, in a well-formed response, while the other groups' answers
// stand; on an unsharded index it propagates and drops the connection.
func (e *executor) runGroup(reqs []Request, g []int) {
	if e.s.bx != nil {
		defer func() {
			if recover() != nil {
				for _, i := range g[e.next:] {
					// No honest duration for a panicked operation: count the
					// outcome, skip the histogram.
					e.put(i, &reqs[i], StatusErr, nil, 0)
				}
			}
		}()
	}
	for e.next = 0; e.next < len(g); {
		i := g[e.next]
		if e.bh != nil && reqs[i].Op == OpGet {
			j := e.next + 1
			for j < len(g) && reqs[g[j]].Op == OpGet {
				j++
			}
			e.getRun(reqs, g[e.next:j])
			e.next = j
			continue
		}
		t0 := e.now()
		st, v := e.point(&reqs[i])
		e.put(i, &reqs[i], st, v, since(t0))
		e.next++
	}
}

// point executes one point operation and returns its status and, for a
// Get, the value. Gets go through the connection's pinned read handle
// when one exists.
func (e *executor) point(rq *Request) (byte, []byte) {
	if rq.Op == OpGet {
		var v []byte
		var ok bool
		if e.h != nil {
			v, ok = e.h.Get(rq.Key)
		} else {
			v, ok = e.s.ix.Get(rq.Key)
		}
		if !ok {
			return StatusNotFound, nil
		}
		return StatusOK, v
	}
	if st := e.s.refuse(rq.Key); st != StatusOK {
		return st, nil
	}
	if rq.Op == OpSet {
		e.set(ownKV(rq.Key, rq.Val))
		return StatusOK, nil
	}
	if e.del(rq.Key) {
		return StatusOK, nil
	}
	return StatusNotFound, nil
}

// commit makes the writes of the run reqs[lo:hi] durable with one
// Commit, which waits once per shard they touched, and records them
// only then. It runs after the run's shard groups, panicked ones
// included, and before any answer of the run is encoded or any barrier
// runs, so the response frame — the wire ack — never precedes the
// durability wait. When the commit fails, each applied write answers
// StatusErr: it is in memory, but whether a restart keeps it is
// unknown. The shard is degraded by then, so later writes are refused.
func (e *executor) commit(reqs []Request, lo, hi int) {
	if e.wr == nil {
		return
	}
	err := e.wr.Commit()
	if err == nil && e.s.mx == nil {
		return
	}
	for k := lo; k < hi; k++ {
		rq, rs := &reqs[k], &e.res[k]
		if rq.Op == OpGet {
			continue
		}
		if err != nil && rs.status == StatusOK {
			rs.status = StatusErr
		}
		e.s.mx.record(rq.Op, rs.status, rq.Key, rs.d)
	}
}

// getRun answers a run of Gets on one shard through the handle's batched
// lookup (Wormhole's memory-parallel pipeline) in one call.
func (e *executor) getRun(reqs []Request, run []int) {
	e.keys = e.keys[:0]
	for _, i := range run {
		e.keys = append(e.keys, reqs[i].Key)
	}
	t0 := e.now()
	vals, found := e.bh.GetBatch(e.keys)
	// The run executes as one pipeline, so per-operation latency is the
	// run's wall time divided evenly — the fair per-op cost of a batched
	// lookup.
	per := since(t0) / time.Duration(len(run))
	for j, i := range run {
		st := StatusNotFound
		if found[j] {
			st = StatusOK
		}
		e.put(i, &reqs[i], st, vals[j], per)
	}
}

// put stores request i's point answer and records it; a write through
// the handle's deferred commit is recorded by commit instead, once its
// outcome is known. A value the response has no room left for answers
// StatusErr instead.
func (e *executor) put(i int, rq *Request, st byte, val []byte, d time.Duration) {
	if len(val) > e.budget {
		st, val = StatusErr, nil
	}
	e.budget -= len(val)
	e.res[i] = result{st, val, d}
	if e.wr == nil || rq.Op == OpGet {
		e.s.mx.record(rq.Op, st, rq.Key, d)
	}
}

// barrier executes one non-point operation, appending its answer to the
// response. Earlier operations of the batch have all run.
func (e *executor) barrier(rq *Request) {
	s, t0 := e.s, e.now()
	// Every case writes its status byte first, so out[stAt] afterwards is
	// the outcome.
	stAt := len(e.out)
	switch rq.Op {
	case OpFlush:
		// Earlier operations in this batch are already applied (and
		// logged, on a durable index), so the barrier covers them.
		switch {
		case s.dx == nil:
			e.out = append(e.out, StatusNotFound)
		case s.dx.Flush() != nil:
			e.out = append(e.out, StatusErr)
		default:
			e.out = append(e.out, StatusOK)
		}
	case OpFence:
		switch {
		case s.fc == nil || len(rq.Key) != 8:
			e.out = append(e.out, StatusNotFound)
		case s.fc.Fence(binary.LittleEndian.Uint64(rq.Key)) != nil:
			// The in-memory fence stands even when persisting it failed;
			// report the failure so the caller knows a restart could
			// forget it.
			e.out = append(e.out, StatusErr)
		default:
			e.out = append(e.out, StatusOK)
		}
	case OpStat:
		doc, err := json.Marshal(s.stat())
		if err != nil || len(doc) > e.budget {
			e.out = append(e.out, StatusErr, 0, 0, 0, 0)
			break
		}
		e.budget -= len(doc)
		e.out = append(e.out, StatusOK)
		e.out = binary.LittleEndian.AppendUint32(e.out, uint32(len(doc)))
		e.out = append(e.out, doc...)
	case OpScan, OpScanDesc:
		e.out = append(e.out, StatusOK, 0, 0)
		e.scanN, e.scanLimit = 0, int(min(rq.Limit, maxScanPairs))
		start := rq.Key
		if len(start) == 0 {
			// The wire cannot carry nil: an empty key means "from the
			// smallest key" ascending, "from the largest" descending.
			start = nil
		}
		scan := e.asc
		if rq.Op == OpScanDesc {
			scan = e.desc
		}
		if scan == nil {
			e.out[stAt] = StatusNotFound
		} else {
			scan(start, e.scanFn)
		}
		binary.LittleEndian.PutUint16(e.out[stAt+1:], uint16(e.scanN))
	default: // OpSubscribe on a server that is not a replication leader
		e.out = append(e.out, StatusNotFound)
	}
	s.mx.record(rq.Op, e.out[stAt], rq.Key, since(t0))
}

// now reads the clock only when metrics are armed: unarmed, the serving
// path never does.
func (e *executor) now() time.Time {
	if e.s.mx == nil {
		return time.Time{}
	}
	return time.Now()
}

// since is the time elapsed from t0, or 0 when now did not read the clock.
func since(t0 time.Time) time.Duration {
	if t0.IsZero() {
		return 0
	}
	return time.Since(t0)
}

// scanPair appends one scanned pair to the response. The scan stops at
// its limit, at maxScanPairs, or at the first pair the response has no
// room left for.
func (e *executor) scanPair(k, v []byte) bool {
	need := 8 + len(k) + len(v)
	if e.scanN >= e.scanLimit || need > e.budget {
		return false
	}
	e.budget -= need
	e.out = binary.LittleEndian.AppendUint32(e.out, uint32(len(k)))
	e.out = append(e.out, k...)
	e.out = binary.LittleEndian.AppendUint32(e.out, uint32(len(v)))
	e.out = append(e.out, v...)
	e.scanN++
	return e.scanN < e.scanLimit
}

// Client is a single-connection batched client. It is not safe for
// concurrent use; benchmark workers each own one client, as HERD clients
// each own a queue pair.
//
// Transport errors are sticky: once a Flush fails, the connection's
// protocol state is unknown (a response may be half-read), so every later
// Flush reports the original failure — wrapped with the server address —
// instead of a confusing short-read on reused state. Redial makes the
// client usable again.
type Client struct {
	addr string
	conn net.Conn
	r    *bufio.Reader
	out  []byte // the request frame: header, then the queued requests
	ops  []byte // op kind per queued request, needed to decode responses
	n    int
	err  error // sticky transport error; cleared by Redial

	// The response frame and its decoded answers, reused by every Flush.
	hdr [6]byte
	in  []byte
	rs  []Response

	// Timeout, when non-zero, bounds each Flush's network phases: the
	// batch write and the response read each get a deadline this far
	// out. An expired deadline surfaces as a sticky transport error;
	// Redial (or FlushRetry, for read-only batches) recovers.
	Timeout time.Duration
}

// Dial connects to a netkv server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		addr: addr,
		conn: conn,
		r:    bufio.NewReaderSize(conn, 1<<20),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Err returns the sticky transport error, if any: the underlying cause of
// the client's broken state (connection reset, server gone), not the
// secondary decode failure it would otherwise surface as.
func (c *Client) Err() error { return c.err }

// fail records the first transport error, wrapped with the address so the
// caller sees which server died, and returns the sticky condition.
func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = fmt.Errorf("netkv: connection to %s broken: %w", c.addr, err)
	}
	return c.err
}

// Redial reconnects a broken client: it closes the old connection,
// retries the dial with exponential backoff until one succeeds or maxWait
// elapses, and clears the sticky error. Reconnecting is caller-driven —
// the client never redials behind the caller's back, because a batch may
// have been half-applied by the dead server and only the caller knows
// whether re-sending is safe. Queued-but-unsent operations are discarded;
// re-queue them after a successful Redial.
func (c *Client) Redial(maxWait time.Duration) error {
	c.conn.Close()
	backoff := 50 * time.Millisecond
	deadline := time.Now().Add(maxWait)
	for {
		conn, err := net.Dial("tcp", c.addr)
		if err == nil {
			c.conn = conn
			c.r.Reset(conn)
			c.out, c.ops, c.n = c.out[:0], c.ops[:0], 0
			c.err = nil
			return nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return fmt.Errorf("netkv: redial %s: %w", c.addr, err)
		}
		// Jitter the sleep (uniform in [backoff/2, backoff]): a restarted
		// leader must not take a synchronized reconnect stampede from
		// every client and follower that lost it at the same instant.
		time.Sleep(backoff/2 + rand.N(backoff/2+1))
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// QueueGet appends a GET to the current batch.
func (c *Client) QueueGet(key []byte) { c.queue(OpGet, key, nil, 0) }

// QueueSet appends a SET to the current batch.
func (c *Client) QueueSet(key, val []byte) { c.queue(OpSet, key, val, 0) }

// QueueDel appends a DEL to the current batch.
func (c *Client) QueueDel(key []byte) { c.queue(OpDel, key, nil, 0) }

// QueueFlush appends a FLUSH barrier to the current batch: the server
// forces every mutation logged so far (including this batch's earlier
// operations) to stable storage before answering. StatusNotFound means
// the server's index is volatile.
func (c *Client) QueueFlush() { c.queue(OpFlush, nil, nil, 0) }

// QueueStat appends a STAT request; the response value is a JSON Stat.
func (c *Client) QueueStat() { c.queue(OpStat, nil, nil, 0) }

// Stat issues a one-request batch asking for the server's Stat document.
// Any queued operations are sent (and answered) ahead of it.
func (c *Client) Stat() (*Stat, error) {
	c.QueueStat()
	rs, err := c.Flush()
	if err != nil {
		return nil, err
	}
	r := rs[len(rs)-1]
	if r.Status != StatusOK {
		return nil, fmt.Errorf("netkv: stat failed on %s (status %d)", c.addr, r.Status)
	}
	var st Stat
	if err := json.Unmarshal(r.Val, &st); err != nil {
		return nil, fmt.Errorf("netkv: stat from %s: %w", c.addr, err)
	}
	return &st, nil
}

// QueueFence appends a FENCE carrying epoch: the server, if its index has
// replication epochs, refuses all writes with StatusFenced from before
// this request is answered.
func (c *Client) QueueFence(epoch uint64) {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], epoch)
	c.queue(OpFence, k[:], nil, 0)
}

// Fence issues a one-request batch fencing the server at epoch. A nil
// return means the server accepted (and persisted) the fence; any write it
// answers afterwards reports StatusFenced. StatusNotFound (the server's
// index has no epochs) and persistence failures surface as errors.
func (c *Client) Fence(epoch uint64) error {
	c.QueueFence(epoch)
	rs, err := c.Flush()
	if err != nil {
		return err
	}
	switch st := rs[len(rs)-1].Status; st {
	case StatusOK:
		return nil
	case StatusNotFound:
		return fmt.Errorf("netkv: %s has no replication epochs to fence", c.addr)
	default:
		return fmt.Errorf("netkv: fence of %s failed (status %d)", c.addr, st)
	}
}

// QueueScan appends a SCAN (up to limit ascending pairs from key; an
// empty key starts at the smallest) to the batch. One response carries at
// most 65,535 pairs, and fewer when they would not fit in one response
// frame; resume a longer range from just past the last key returned.
func (c *Client) QueueScan(key []byte, limit int) {
	c.queue(OpScan, key, nil, uint32(limit))
}

// QueueScanDesc appends a descending SCAN (up to limit pairs downward
// from key; an empty key starts at the largest) to the batch, bounded as
// QueueScan is.
func (c *Client) QueueScanDesc(key []byte, limit int) {
	c.queue(OpScanDesc, key, nil, uint32(limit))
}

// Pending returns the number of queued operations.
func (c *Client) Pending() int { return c.n }

func (c *Client) queue(op byte, key, val []byte, limit uint32) {
	if len(c.out) == 0 {
		c.out = append(c.out, c.hdr[:]...) // header placeholder
	}
	c.out = append(c.out, op)
	c.out = binary.LittleEndian.AppendUint32(c.out, uint32(len(key)))
	c.out = append(c.out, key...)
	if op == OpScan || op == OpScanDesc {
		c.out = binary.LittleEndian.AppendUint32(c.out, limit)
	} else {
		c.out = binary.LittleEndian.AppendUint32(c.out, uint32(len(val)))
		c.out = append(c.out, val...)
	}
	c.ops = append(c.ops, op)
	c.n++
}

// Flush sends the batch and reads all responses, in request order. The
// returned slice and everything it references alias internal buffers
// valid until the next Flush. A batch of more than 65,535 operations, or
// one too large for a frame, is discarded unsent with an error; the
// connection stays usable. After a transport error the client is broken
// until Redial: the error (with its underlying cause) repeats on every
// call rather than decaying into short-read noise on a half-consumed
// stream.
func (c *Client) Flush() ([]Response, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.n == 0 {
		return nil, nil
	}
	ops, n, frameLen := c.ops, c.n, len(c.out)-4
	c.out, c.ops, c.n = c.out[:0], c.ops[:0], 0
	if n > 1<<16-1 || frameLen > maxFrame {
		return nil, fmt.Errorf("netkv: batch of %d ops in %d bytes exceeds a frame (65535 ops, %d bytes); nothing sent", n, frameLen, maxFrame)
	}
	out := c.out[:frameLen+4] // still holds the batch until the next queue
	binary.LittleEndian.PutUint32(out[:4], uint32(frameLen))
	binary.LittleEndian.PutUint16(out[4:], uint16(n))
	if c.Timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.Timeout))
	}
	if _, err := c.conn.Write(out); err != nil {
		return nil, c.fail(err)
	}
	if cap(c.out) > keepBuf {
		c.out = nil
	}
	return c.readResponses(ops)
}

// FlushRetry sends the batch like Flush but, when every queued operation
// is an idempotent read (Get, Scan, ScanDesc, Stat) and the transport
// fails, redials and re-sends the same batch until maxWait elapses —
// safe precisely because re-executing a read changes nothing. Batches
// containing mutations or flush barriers never retry: the dead server
// may have applied them, and only the caller knows whether re-sending is
// safe (the same reason Redial itself is caller-driven).
func (c *Client) FlushRetry(maxWait time.Duration) ([]Response, error) {
	idempotent := c.err == nil
	for _, op := range c.ops {
		switch op {
		case OpGet, OpScan, OpScanDesc, OpStat:
		default:
			idempotent = false
		}
	}
	if !idempotent {
		return c.Flush()
	}
	out := append([]byte(nil), c.out...)
	ops := append([]byte(nil), c.ops...)
	n := c.n
	deadline := time.Now().Add(maxWait)
	for {
		rs, err := c.Flush()
		if err == nil || c.err == nil { // success, or a batch refused unsent
			return rs, err
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, err
		}
		if rerr := c.Redial(remain); rerr != nil {
			return nil, err
		}
		c.out = append(c.out[:0], out...)
		c.ops = append(c.ops[:0], ops...)
		c.n = n
	}
}

func (c *Client) readResponses(ops []byte) ([]Response, error) {
	if c.Timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.Timeout))
	}
	if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
		return nil, c.fail(err)
	}
	frameLen := binary.LittleEndian.Uint32(c.hdr[:4])
	got := int(binary.LittleEndian.Uint16(c.hdr[4:]))
	if got != len(ops) {
		return nil, c.fail(fmt.Errorf("netkv: response count %d != %d", got, len(ops)))
	}
	if frameLen < 2 || frameLen > maxFrame {
		return nil, c.fail(errors.New("netkv: bad response frame"))
	}
	if cap(c.in) > keepBuf {
		c.in = nil
	}
	c.in = slices.Grow(c.in[:0], int(frameLen-2))[:frameLen-2]
	if _, err := io.ReadFull(c.r, c.in); err != nil {
		return nil, c.fail(err)
	}
	rs, err := decodeResponses(c.in, ops, c.rs)
	if err != nil {
		return nil, c.fail(err)
	}
	c.rs = rs
	return rs, nil
}

// decodeResponses parses a response body answering ops into rs's
// storage; the answers alias body.
func decodeResponses(body, ops []byte, rs []Response) ([]Response, error) {
	rs = slices.Grow(rs[:0], len(ops))[:len(ops)]
	for i, op := range ops {
		if len(body) < 1 {
			return nil, errors.New("netkv: truncated response")
		}
		rp := &rs[i]
		*rp = Response{Status: body[0]}
		body = body[1:]
		switch op {
		case OpGet, OpStat:
			if len(body) < 4 {
				return nil, errors.New("netkv: truncated get response")
			}
			vlen := binary.LittleEndian.Uint32(body[:4])
			body = body[4:]
			if uint32(len(body)) < vlen {
				return nil, errors.New("netkv: truncated get value")
			}
			rp.Val = body[:vlen]
			body = body[vlen:]
		case OpScan, OpScanDesc:
			if len(body) < 2 {
				return nil, errors.New("netkv: truncated scan response")
			}
			n := int(binary.LittleEndian.Uint16(body[:2]))
			body = body[2:]
			for j := 0; j < n; j++ {
				if len(body) < 4 {
					return nil, errors.New("netkv: truncated scan pair")
				}
				klen := binary.LittleEndian.Uint32(body[:4])
				body = body[4:]
				if uint64(klen)+4 > uint64(len(body)) {
					return nil, errors.New("netkv: truncated scan key")
				}
				rp.Keys = append(rp.Keys, body[:klen])
				body = body[klen:]
				vlen := binary.LittleEndian.Uint32(body[:4])
				body = body[4:]
				if uint32(len(body)) < vlen {
					return nil, errors.New("netkv: truncated scan value")
				}
				rp.Vals = append(rp.Vals, body[:vlen])
				body = body[vlen:]
			}
		}
	}
	return rs, nil
}
