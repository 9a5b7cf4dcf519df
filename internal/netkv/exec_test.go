package netkv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/repro/wormhole/internal/metrics"
	"github.com/repro/wormhole/internal/shard"
)

// serveStore serves st and dials one client, both closed at cleanup.
func serveStore(t *testing.T, st *shard.Store) *Client {
	t.Helper()
	s, err := Serve("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestScanStopsAtPairCountLimit: a scan response counts its pairs in a
// uint16, so a larger limit must stop at 65,535 pairs in a well-formed
// frame rather than wrap the count and break the client's decoder.
func TestScanStopsAtPairCountLimit(t *testing.T) {
	st := shard.New(shard.Options{Shards: 2})
	const n = 70000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		st.Set(k, k)
	}
	c := serveStore(t, st)
	c.QueueScan(nil, n)
	c.QueueGet([]byte("key-069999"))
	rs, err := c.Flush()
	if err != nil {
		t.Fatalf("70k-pair scan broke the connection: %v", err)
	}
	if got := len(rs[0].Keys); rs[0].Status != StatusOK || got != maxScanPairs {
		t.Fatalf("scan returned status %d with %d pairs, want %d", rs[0].Status, got, maxScanPairs)
	}
	if last := string(rs[0].Keys[maxScanPairs-1]); last != fmt.Sprintf("key-%06d", maxScanPairs-1) {
		t.Fatalf("last pair %q", last)
	}
	if rs[1].Status != StatusOK || string(rs[1].Val) != "key-069999" {
		t.Fatalf("get after the scan = %+v", rs[1])
	}
}

// TestFlushRefusesOversizedBatch: a batch's op count is a uint16, so
// Flush must refuse 65,536 queued operations without sending a frame
// whose count wrapped, and leave the connection usable.
func TestFlushRefusesOversizedBatch(t *testing.T) {
	c := serveStore(t, shard.New(shard.Options{Shards: 2}))
	for i := 0; i <= maxScanPairs; i++ {
		c.QueueSet([]byte(fmt.Sprintf("k%06d", i)), []byte("v"))
	}
	if _, err := c.Flush(); err == nil || !strings.Contains(err.Error(), "nothing sent") {
		t.Fatalf("Flush of %d ops = %v, want a refusal", maxScanPairs+1, err)
	}
	if c.Pending() != 0 || c.Err() != nil {
		t.Fatalf("after the refusal: pending %d, sticky error %v", c.Pending(), c.Err())
	}
	c.QueueGet([]byte("k000000"))
	c.QueueStat()
	rs, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Status != StatusNotFound {
		t.Fatalf("a refused batch was applied: %+v", rs[0])
	}
	var doc Stat
	if err := json.Unmarshal(rs[1].Val, &doc); err != nil || doc.Keys != 0 {
		t.Fatalf("stat after the refusal: %v, %d keys", err, doc.Keys)
	}
}

// bigValueClient serves a 2-shard store holding three keys whose values
// are each a third of a frame, so two fit in one response and three do
// not.
func bigValueClient(t *testing.T) (*Client, int) {
	st := shard.New(shard.Options{Shards: 2})
	size := maxFrame / 3
	big := make([]byte, size) // shared by all three keys
	for _, k := range []string{"big-1", "big-2", "big-3"} {
		st.Set([]byte(k), big)
	}
	return serveStore(t, st), size
}

// TestResponseFrameBoundPointOp: a Get whose value would push the
// response past maxFrame answers StatusErr; the ones that fit are served.
func TestResponseFrameBoundPointOp(t *testing.T) {
	c, size := bigValueClient(t)
	for _, k := range []string{"big-1", "big-2", "big-3"} {
		c.QueueGet([]byte(k))
	}
	rs, err := c.Flush()
	if err != nil {
		t.Fatalf("oversized response broke the connection: %v", err)
	}
	for i := 0; i < 2; i++ {
		if rs[i].Status != StatusOK || len(rs[i].Val) != size {
			t.Fatalf("get %d: status %d, %d bytes", i, rs[i].Status, len(rs[i].Val))
		}
	}
	if rs[2].Status != StatusErr || len(rs[2].Val) != 0 {
		t.Fatalf("get past the frame bound: status %d, %d bytes; want StatusErr", rs[2].Status, len(rs[2].Val))
	}
}

// TestResponseFrameBoundScan: a scan stops at the last pair that fits in
// one response frame.
func TestResponseFrameBoundScan(t *testing.T) {
	c, size := bigValueClient(t)
	c.QueueScan(nil, 10)
	c.QueueGet([]byte("absent"))
	rs, err := c.Flush()
	if err != nil {
		t.Fatalf("oversized scan broke the connection: %v", err)
	}
	if rs[0].Status != StatusOK || len(rs[0].Keys) != 2 || len(rs[0].Vals[1]) != size {
		t.Fatalf("scan: status %d, %d pairs; want 2 pairs", rs[0].Status, len(rs[0].Keys))
	}
	if rs[1].Status != StatusNotFound {
		t.Fatalf("get after the scan = %+v", rs[1])
	}
}

// twoShardStore returns a 2-shard store split inside keys, with every key
// set to itself.
func twoShardStore(keys [][]byte) *shard.Store {
	st := shard.New(shard.Options{Shards: 2, Sample: keys})
	for _, k := range keys {
		st.Set(k, k)
	}
	return st
}

func allocKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-%06d", i*7))
	}
	return keys
}

// TestExecutorZeroAllocs: after warm-up, decoding and executing a batch
// of 64 Gets over a 2-shard store through a pinned handle allocates
// nothing, with or without metrics armed.
func TestExecutorZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	keys := allocKeys(4096)
	st := twoShardStore(keys)
	var c Client
	for i := 0; i < 64; i++ {
		c.QueueGet(keys[(i*613)%len(keys)])
	}
	c.QueueGet([]byte("alloc-miss"))
	frame := c.out
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	binary.LittleEndian.PutUint16(frame[4:], uint16(c.n))

	for _, armed := range []bool{false, true} {
		var opt ServerOptions
		if armed {
			opt.Metrics = NewServerMetrics(metrics.NewRegistry(), metrics.NewSlowLog(16, time.Hour))
		}
		e := newServer(st, opt).newExecutor()
		if e.bh == nil || len(e.groups) != 2 {
			t.Fatalf("executor has no batched handle or no shard groups")
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
		if n := testing.AllocsPerRun(200, run); n != 0 {
			t.Errorf("metrics armed %v: %v allocs per batch, want 0", armed, n)
		}
		rs, err := decodeResponses(e.out[6:], c.ops, nil)
		if err != nil || len(rs) != 65 || rs[0].Status != StatusOK || rs[64].Status != StatusNotFound {
			t.Fatalf("batch answers wrong: %v", err)
		}
		e.h.Close()
	}
}

// TestClientFlushZeroAllocs: after warm-up, a client's round trip of a
// Get batch — queue, send, and decode — allocates nothing; the count is
// process-wide, so it covers the serving side of the loopback too.
func TestClientFlushZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	keys := allocKeys(4096)
	c := serveStore(t, twoShardStore(keys))
	i := 0
	run := func() {
		for j := 0; j < 64; j++ {
			c.QueueGet(keys[(i*64+j*613)%len(keys)])
		}
		i++
		rs, err := c.Flush()
		if err != nil || len(rs) != 64 || rs[0].Status != StatusOK {
			t.Fatalf("flush: %d answers, %v", len(rs), err)
		}
	}
	run()
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("Client.Flush of 64 Gets: %v allocs per batch, want 0", n)
	}
}

// frameOf encodes a batch the way Client.Flush does and returns the
// frame body with its 2-byte op count in front — FuzzFrame's input shape.
func frameOf(queue func(c *Client)) []byte {
	var c Client
	queue(&c)
	if c.n == 0 {
		return []byte{0, 0}
	}
	binary.LittleEndian.PutUint16(c.out[4:], uint16(c.n))
	return c.out[4:]
}

// FuzzFrame sends hostile request frames through the server's decoder and
// executor over a 2-shard store and checks every answer against a map
// model: a frame the decoder rejects must change nothing, and a frame it
// accepts must re-encode to what it decoded and be answered exactly as
// the model answers it, in a response the client decoder accepts.
func FuzzFrame(f *testing.F) {
	f.Add(frameOf(func(c *Client) {
		c.QueueSet([]byte("b"), []byte("2"))
		c.QueueGet([]byte("a"))
		c.QueueGet([]byte("\xf0z"))
		c.QueueDel([]byte("a"))
		c.QueueGet([]byte("a"))
	}))
	f.Add(frameOf(func(c *Client) {
		c.QueueScan(nil, 3)
		c.QueueSet([]byte("\xf1"), []byte("x"))
		c.QueueScanDesc([]byte("\xf0"), 100)
		c.QueueScan([]byte("a"), 0)
	}))
	f.Add(frameOf(func(c *Client) {
		c.QueueFlush()
		c.QueueStat()
		c.QueueFence(7)
		c.QueueSet([]byte("c"), []byte("fenced"))
		c.QueueDel([]byte("a"))
	}))
	f.Add(frameOf(func(c *Client) { c.queue(OpSubscribe, []byte("hello"), nil, 0) }))
	f.Add(frameOf(func(c *Client) {
		c.QueueGet([]byte("a"))
		c.queue(OpSubscribe, nil, nil, 0)
	}))
	f.Add([]byte{3, 0, OpGet, 1, 0, 0, 0, 'a', 0, 0, 0, 0})             // count past the ops
	f.Add([]byte{1, 0, OpSet, 0xff, 0xff, 0xff, 0xff, 'a', 0, 0, 0, 0}) // key length near 2^32
	f.Add([]byte{1, 0, OpSet, 1, 0, 0, 0, 'a', 9, 0, 0, 0, 'v'})        // value past the frame
	f.Add([]byte{1, 0, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0})                   // unknown opcode
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		seed := [][]byte{[]byte("a"), []byte("aa"), []byte("m"), []byte("\xf0z"), []byte("\xff")}
		st := shard.New(shard.Options{Shards: 2, Sample: seed})
		model := map[string]string{}
		for _, k := range seed {
			st.Set(append([]byte{}, k...), []byte("v-"+string(k)))
			model[string(k)] = "v-" + string(k)
		}
		epoch, fencedBy := st.Epoch(), uint64(0)
		e := newServer(st, ServerOptions{}).newExecutor()
		defer e.h.Close()

		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(data)))
		frame = append(frame, data...)
		reqs, err := e.read(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			checkStore(t, st, model)
			return
		}
		// The decoder and the client encoder agree on what was sent.
		var enc Client
		for _, rq := range reqs {
			enc.queue(rq.Op, rq.Key, rq.Val, rq.Limit)
		}
		if len(reqs) > 0 && !bytes.HasPrefix(data[2:], enc.out[6:]) {
			t.Fatalf("decoded requests re-encode differently")
		}

		out := e.exec(reqs)
		if int(binary.LittleEndian.Uint32(out[:4])) != len(out)-4 || len(out)-4 > maxFrame ||
			int(binary.LittleEndian.Uint16(out[4:6])) != len(reqs) {
			t.Fatalf("malformed response header for %d answers in %d bytes", len(reqs), len(out))
		}
		ops := make([]byte, len(reqs))
		for i, rq := range reqs {
			ops[i] = rq.Op
		}
		rs, err := decodeResponses(out[6:], ops, nil)
		if err != nil {
			t.Fatalf("client rejects the response: %v", err)
		}

		for i, rq := range reqs {
			got, k := rs[i], string(rq.Key)
			want := Response{Status: StatusOK}
			switch rq.Op {
			case OpGet:
				v, ok := model[k]
				if !ok {
					want.Status = StatusNotFound
				}
				want.Val = []byte(v)
			case OpSet, OpDel:
				if fencedBy != 0 {
					want.Status = StatusFenced
				} else if rq.Op == OpSet {
					model[k] = string(rq.Val)
				} else if _, ok := model[k]; ok {
					delete(model, k)
				} else {
					want.Status = StatusNotFound
				}
			case OpScan, OpScanDesc:
				want.Keys = modelScan(model, rq.Key, rq.Op == OpScanDesc, int(min(rq.Limit, maxScanPairs)))
			case OpFlush, OpSubscribe:
				want.Status = StatusNotFound
			case OpFence:
				if len(rq.Key) != 8 {
					want.Status = StatusNotFound
				} else if ep := binary.LittleEndian.Uint64(rq.Key); ep > epoch && ep > fencedBy {
					fencedBy = ep
				}
			case OpStat:
				var doc Stat
				if err := json.Unmarshal(got.Val, &doc); err != nil || doc.Keys != int64(len(model)) || doc.FencedBy != fencedBy {
					t.Fatalf("answer %d: stat %s (%v), want %d keys fenced by %d", i, got.Val, err, len(model), fencedBy)
				}
				want.Val = got.Val
			}
			if got.Status != want.Status || !bytes.Equal(got.Val, want.Val) || len(got.Keys) != len(want.Keys) {
				t.Fatalf("answer %d to op %d key %q: status %d val %q, %d pairs; want status %d val %q, %d pairs",
					i, rq.Op, rq.Key, got.Status, got.Val, len(got.Keys), want.Status, want.Val, len(want.Keys))
			}
			for j, wk := range want.Keys {
				if !bytes.Equal(got.Keys[j], wk) || string(got.Vals[j]) != model[string(wk)] {
					t.Fatalf("answer %d pair %d: %q=%q, want %q=%q", i, j, got.Keys[j], got.Vals[j], wk, model[string(wk)])
				}
			}
		}
		checkStore(t, st, model)
	})
}

// modelScan answers a scan from the model: up to limit keys from start
// (nil or empty: from the end the scan starts at) in scan order.
func modelScan(model map[string]string, start []byte, desc bool, limit int) [][]byte {
	var keys []string
	for k := range model {
		if len(start) == 0 || (!desc && k >= string(start)) || (desc && k <= string(start)) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if desc {
		for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	var out [][]byte
	for _, k := range keys[:min(limit, len(keys))] {
		out = append(out, []byte(k))
	}
	return out
}

// checkStore asserts the store holds exactly the model's pairs.
func checkStore(t *testing.T, st *shard.Store, model map[string]string) {
	t.Helper()
	n := 0
	st.Scan(nil, func(k, v []byte) bool {
		if want, ok := model[string(k)]; !ok || want != string(v) {
			t.Fatalf("store holds %q=%q; model has %q (present %v)", k, v, want, ok)
		}
		n++
		return true
	})
	if n != len(model) {
		t.Fatalf("store holds %d keys, model %d", n, len(model))
	}
}
