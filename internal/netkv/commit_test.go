package netkv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"time"

	"github.com/repro/wormhole/internal/metrics"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/vfs"
	"github.com/repro/wormhole/internal/wal"
)

// splitAtM routes keys below "m" to shard 0 and the rest to shard 1.
var splitAtM = [][]byte{[]byte("m")}

// openSyncAlways opens a 2-shard SyncAlways store on fsys at /db.
func openSyncAlways(t *testing.T, fsys vfs.FS, mx *wal.Metrics) *shard.Store {
	t.Helper()
	st, err := shard.Open(shard.Options{Dir: "/db", Partitioner: shard.NewExplicit(splitAtM),
		Durability: wal.Options{Sync: wal.SyncAlways, FS: fsys, Metrics: mx, NoSelfHeal: true}})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// flushOK sends the queued batch and fails the test on a transport error.
func flushOK(t *testing.T, c *Client) []Response {
	t.Helper()
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestBatchFsyncCount pins the group commit by its exact fsync count on
// a 2-shard SyncAlways store: a batch's writes wait once per shard they
// touch, and a barrier in the batch runs only after the writes before it
// are committed.
func TestBatchFsyncCount(t *testing.T) {
	mx := wal.NewMetrics(metrics.NewRegistry())
	st := openSyncAlways(t, vfs.NewMemFS(), mx)
	defer st.Close()
	c := serveStore(t, st)
	batch := func(queue func()) uint64 {
		t.Helper()
		f0 := mx.Fsyncs.Value()
		queue()
		for i, rs := range flushOK(t, c) {
			if rs.Status != StatusOK {
				t.Fatalf("answer %d: status %d", i, rs.Status)
			}
		}
		return mx.Fsyncs.Value() - f0
	}

	if n := batch(func() {
		for i := 0; i < 16; i++ {
			c.QueueSet([]byte(fmt.Sprintf("%c-%02d", "az"[i%2], i)), []byte("v"))
		}
	}); n != 2 {
		t.Errorf("16 Sets over both shards: %d fsyncs, want 2", n)
	}
	if n := batch(func() {
		for i := 0; i < 16; i++ {
			c.QueueSet([]byte(fmt.Sprintf("b-%02d", i)), []byte("v"))
		}
		c.QueueGet([]byte("b-00"))
		c.QueueDel([]byte("b-01"))
	}); n != 1 {
		t.Errorf("16 Sets, a Get and a Del on one shard: %d fsyncs, want 1", n)
	}
	// Flush syncs both shards. Committed first, the Set costs its own
	// fsync; folded into the Flush, the batch would cost 3.
	if n := batch(func() {
		c.QueueSet([]byte("c-1"), []byte("v"))
		c.QueueFlush()
		c.QueueSet([]byte("c-2"), []byte("v"))
	}); n != 4 {
		t.Errorf("Set, Flush, Set: %d fsyncs, want 4 (Set committed before the Flush)", n)
	}
	if n := batch(func() { c.QueueGet([]byte("c-1")) }); n != 0 {
		t.Errorf("a Get batch: %d fsyncs, want 0", n)
	}
}

// TestWriteCommitFailureAnswersErr: when a batch's durability wait
// fails, its writes answer StatusErr, never StatusOK, and are counted so;
// the failing shard goes degraded and refuses the next write, while the
// healthy shard keeps accepting writes.
func TestWriteCommitFailureAnswersErr(t *testing.T) {
	inj := vfs.NewInjector(vfs.NewMemFS())
	st := openSyncAlways(t, inj, nil)
	defer st.Close()
	reg := metrics.NewRegistry()
	s, err := ServeOpts("127.0.0.1:0", st, ServerOptions{Metrics: NewServerMetrics(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.QueueSet([]byte("a-0"), []byte("v"))
	if rs := flushOK(t, c); rs[0].Status != StatusOK {
		t.Fatalf("healthy write: status %d", rs[0].Status)
	}
	inj.AddRule(vfs.Rule{Kind: vfs.KindSync, PathContains: "shard-000/wal-", Count: 1, Err: syscall.EIO})
	c.QueueSet([]byte("a-1"), []byte("v"))
	c.QueueSet([]byte("z-1"), []byte("v"))
	c.QueueDel([]byte("a-0"))
	c.QueueGet([]byte("z-1"))
	c.QueueDel([]byte("a-absent"))
	rs := flushOK(t, c)
	for i, want := range []byte{StatusErr, StatusErr, StatusErr, StatusOK, StatusNotFound} {
		if rs[i].Status != want {
			t.Errorf("answer %d after a failed fsync: status %d, want %d", i, rs[i].Status, want)
		}
	}
	if !st.Degraded() {
		t.Fatal("a failed commit did not degrade the store")
	}
	c.QueueSet([]byte("a-2"), []byte("v"))
	c.QueueSet([]byte("z-2"), []byte("v"))
	rs = flushOK(t, c)
	if rs[0].Status != StatusDegraded || rs[1].Status != StatusOK {
		t.Fatalf("writes after the failure: statuses %d, %d; want %d (degraded shard), %d",
			rs[0].Status, rs[1].Status, StatusDegraded, StatusOK)
	}
	var buf bytes.Buffer
	reg.WriteText(&buf)
	for _, line := range []string{
		`netkv_ops_total{op="set",status="err"} 2`,
		`netkv_ops_total{op="del",status="err"} 1`,
		`netkv_ops_total{op="set",status="ok"} 2`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(line+"\n")) {
			t.Errorf("scrape lacks %q", line)
		}
	}
}

// TestAckedWritesSurviveCrash drives one connection's mixed Set/Del/Get
// batches into a 2-shard SyncAlways store, cuts power right after an
// acknowledgement, and recovers: the store must hold exactly the
// acknowledged history — every acknowledged write present, nothing that
// was never sent.
func TestAckedWritesSurviveCrash(t *testing.T) {
	mem := vfs.NewMemFS()
	rng := rand.New(rand.NewSource(13))
	model := map[string]string{}
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = fmt.Sprintf("%c-%02d", "bdkpsx"[i%6], i)
	}
	seq := 0
	for round := 0; round < 3; round++ {
		st := openSyncAlways(t, mem, nil)
		if int(st.Count()) != len(model) {
			t.Fatalf("round %d: recovered %d keys, want %d", round, st.Count(), len(model))
		}
		for k, v := range model {
			if got, ok := st.Get([]byte(k)); !ok || string(got) != v {
				t.Fatalf("round %d: recovered %q = %q, %v; want %q", round, k, got, ok, v)
			}
		}
		s, err := Serve("127.0.0.1:0", st)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 20+rng.Intn(20); b++ {
			type op struct {
				kind byte
				key  string
				val  string
			}
			var ops []op
			for i := 0; i < 1+rng.Intn(24); i++ {
				o := op{kind: []byte{OpSet, OpSet, OpDel, OpGet}[rng.Intn(4)], key: keys[rng.Intn(len(keys))]}
				switch o.kind {
				case OpSet:
					seq++
					o.val = fmt.Sprintf("v%d", seq)
					c.QueueSet([]byte(o.key), []byte(o.val))
				case OpDel:
					c.QueueDel([]byte(o.key))
				case OpGet:
					c.QueueGet([]byte(o.key))
				}
				ops = append(ops, o)
			}
			for i, rs := range flushOK(t, c) {
				o := ops[i]
				want, present := model[o.key]
				switch {
				case o.kind == OpSet && rs.Status == StatusOK:
					model[o.key] = o.val
				case o.kind == OpDel && rs.Status == StatusOK && present:
					delete(model, o.key)
				case o.kind == OpDel && rs.Status == StatusNotFound && !present:
				case o.kind == OpGet && rs.Status == StatusOK && present && string(rs.Val) == want:
				case o.kind == OpGet && rs.Status == StatusNotFound && !present:
				default:
					t.Fatalf("round %d: op %d (opcode %d, %q) answered %d %q; model has %q, %v",
						round, i, o.kind, o.key, rs.Status, rs.Val, want, present)
				}
			}
		}
		mem.Crash()
		c.Close()
		s.Close()
		st.Close() // fails on the crashed filesystem; the image is what counts
		mem.Restart()
	}
}

// TestExecutorSetAllocs: a served Set costs exactly one allocation — its
// key and value copied into one buffer the index retains — with or
// without metrics armed.
func TestExecutorSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	keys := allocKeys(4096)
	st := twoShardStore(keys)
	var c Client
	for i := 0; i < 16; i++ {
		c.QueueSet(keys[(i*613)%len(keys)], []byte("overwrite-value"))
	}
	frame := c.out
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	binary.LittleEndian.PutUint16(frame[4:], uint16(c.n))

	for _, armed := range []bool{false, true} {
		var opt ServerOptions
		if armed {
			opt.Metrics = NewServerMetrics(metrics.NewRegistry(), metrics.NewSlowLog(16, time.Hour))
		}
		e := newServer(st, opt).newExecutor()
		if e.wr == nil {
			t.Fatal("executor has no deferred-commit write handle")
		}
		src := bytes.NewReader(frame)
		r := bufio.NewReader(src)
		run := func() {
			src.Reset(frame)
			r.Reset(src)
			reqs, err := e.read(r)
			if err != nil {
				t.Fatal(err)
			}
			e.exec(reqs)
		}
		run()
		if n := testing.AllocsPerRun(200, run); n != 16 {
			t.Errorf("metrics armed %v: %v allocs per 16-Set batch, want 16", armed, n)
		}
		rs, err := decodeResponses(e.out[6:], c.ops, nil)
		if err != nil || len(rs) != 16 || rs[0].Status != StatusOK {
			t.Fatalf("batch answers wrong: %v", err)
		}
		e.h.Close()
	}
}
