package main

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

// openTestStore opens a durable two-shard store on a fresh memFS.
func openTestStore(t *testing.T, fs *memFS, sample [][]byte) *shard.Store {
	t.Helper()
	st, err := shard.Open(shard.Options{Shards: shards, Sample: sample, Dir: storeDir,
		Durability: wal.Options{Sync: wal.SyncAlways, FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTracedStoreKeepsServerCapabilities pins that the traced run serves
// the store through the same server paths as the untraced run: every
// capability netkv.ServeOpts probes for must survive the wrapper.
func TestTracedStoreKeepsServerCapabilities(t *testing.T) {
	fs := newMemFS()
	defer fs.Close()
	keys := preloadKeys(1000, 1)
	st := openTestStore(t, fs, keys)
	defer st.Close()
	var ix index.Index = &tracedStore{Store: st, p: &probe{}}

	bx, ok := ix.(index.Batcher)
	if !ok || bx.NumShards() <= 1 {
		t.Fatalf("traced store is not an index.Batcher with >1 shard (ok=%v)", ok)
	}
	rp, ok := ix.(index.ReadPinner)
	if !ok {
		t.Fatal("traced store is not an index.ReadPinner")
	}
	h := rp.NewReadHandle()
	defer h.Close()
	if _, ok := h.(index.BatchHandle); !ok {
		t.Error("traced read handle is not an index.BatchHandle")
	}
	if _, ok := h.(index.ScanHandle); !ok {
		t.Error("traced read handle is not an index.ScanHandle")
	}
	if _, ok := ix.(index.Durable); !ok {
		t.Error("traced store is not index.Durable")
	}
	if d, ok := ix.(interface{ Durable() bool }); !ok || !d.Durable() {
		t.Error("traced store does not report itself durable")
	}
	if _, ok := ix.(interface{ WriteErr(key []byte) error }); !ok {
		t.Error("traced store lost WriteErr")
	}
	type fencer interface {
		FenceErr() error
		Fence(epoch uint64) error
		Epoch() uint64
		FencedBy() uint64
	}
	if _, ok := ix.(fencer); !ok {
		t.Error("traced store lost the fencer methods")
	}

	// Over the wire: the server must see a durable, epoch-fenced store.
	srv, err := netkv.ServeOpts("127.0.0.1:0", ix, netkv.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := netkv.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stat, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if !stat.Durable || stat.Epoch == 0 || stat.Shards != shards {
		t.Errorf("server sees durable=%v epoch=%d shards=%d", stat.Durable, stat.Epoch, stat.Shards)
	}
}

// TestTracedStoreRecordsSpans drives the traced store over the wire and
// checks that each layer's spans are recorded only while armed.
func TestTracedStoreRecordsSpans(t *testing.T) {
	fs := newMemFS()
	defer fs.Close()
	keys := preloadKeys(2000, 2)
	p := &probe{}
	st, err := shard.Open(shard.Options{Shards: shards, Sample: keys, Dir: storeDir,
		Durability: wal.Options{Sync: wal.SyncAlways, FS: &tracedFS{FS: fs, p: p}}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := netkv.ServeOpts("127.0.0.1:0", &tracedStore{Store: st, p: p}, netkv.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := netkv.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	batch := func(arm *tracer) {
		p.Store(arm)
		defer p.Store(nil)
		for _, k := range keys[:64] {
			c.QueueSet(k, k)
		}
		for _, k := range keys[:64] {
			c.QueueGet(k)
		}
		if _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		c.QueueScan(nil, 10)
		if _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	batch(nil)
	tr := newTracer()
	batch(tr)
	if n := tr.set.calls.Load(); n != 64 {
		t.Errorf("set spans = %d, want 64", n)
	}
	if n := tr.getBatch.work.Load() + tr.get.calls.Load(); n != 64 {
		t.Errorf("keys looked up in traced spans = %d, want 64", n)
	}
	if n, pairs := tr.scan.calls.Load(), tr.scan.work.Load(); n != 1 || pairs != 10 {
		t.Errorf("scan spans = %d with %d pairs, want 1 with 10", n, pairs)
	}
	if tr.sync.calls.Load() == 0 || tr.write.calls.Load() == 0 {
		t.Errorf("vfs spans: %d writes, %d syncs; want both > 0 under SyncAlways",
			tr.write.calls.Load(), tr.sync.calls.Load())
	}
}

// TestMemFSRecovery writes through the memfd filesystem, snapshots, writes
// more, and recovers everything from a reopen.
func TestMemFSRecovery(t *testing.T) {
	fs := newMemFS()
	defer fs.Close()
	keys := preloadKeys(3000, 3)
	st := openTestStore(t, fs, keys)
	for i, k := range keys[:2000] {
		st.Set(k, []byte(fmt.Sprint(i)))
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys[1000:] {
		st.Set(k, []byte(fmt.Sprint(-i)))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openTestStore(t, fs, nil)
	defer st.Close()
	if st.Count() != int64(len(keys)) || st.RecoveredPairs() == 0 || st.RecoveredRecords() == 0 {
		t.Fatalf("recovered %d keys (%d snapshot pairs, %d records)",
			st.Count(), st.RecoveredPairs(), st.RecoveredRecords())
	}
	for i, k := range keys {
		want := fmt.Sprint(i)
		if i >= 1000 {
			want = fmt.Sprint(-(i - 1000))
		}
		if v, ok := st.Get(k); !ok || string(v) != want {
			t.Fatalf("key %d = %q, %v; want %q", i, v, ok, want)
		}
	}
}

func TestFreshKeysDisjointFromPreload(t *testing.T) {
	pre := preloadKeys(20000, 4)
	fresh := freshKeys(30000, 4, sortedCopy(pre))
	if len(fresh) != 30000 {
		t.Fatalf("got %d fresh keys", len(fresh))
	}
	seen := map[string]bool{}
	for _, k := range pre {
		seen[string(k)] = true
	}
	for _, k := range fresh {
		if seen[string(k)] {
			t.Fatalf("fresh key %q repeats or is preloaded", k)
		}
		seen[string(k)] = true
	}
	if again := freshKeys(30000, 4, sortedCopy(pre)); !bytes.Equal(again[29999], fresh[29999]) {
		t.Error("fresh keys differ for the same seed")
	}
}

func TestChoosersAreSeededAndSkewed(t *testing.T) {
	const n, draws = 100000, 200000
	count := func(c chooser) map[int]int {
		m := map[int]int{}
		for i := 0; i < draws; i++ {
			k := c.next()
			if k < 0 || k >= n {
				t.Fatalf("index %d out of range", k)
			}
			m[k]++
		}
		return m
	}
	z1, z2 := newZipfian(newRand(5, 1), n, 0.99), newZipfian(newRand(5, 1), n, 0.99)
	for i := 0; i < 1000; i++ {
		if z1.next() != z2.next() {
			t.Fatal("zipfian chooser differs for the same seed")
		}
	}
	hottest := 0
	for _, c := range count(newZipfian(newRand(5, 2), n, 0.99)) {
		hottest = max(hottest, c)
	}
	// Under theta 0.99 the top rank takes ~8% of draws at n=100k;
	// uniform draws give each key ~2.
	if hottest < draws/20 {
		t.Errorf("hottest zipfian key drawn %d of %d times", hottest, draws)
	}
	hottest = 0
	for _, c := range count(&uniform{newRand(5, 3), n}) {
		hottest = max(hottest, c)
	}
	if hottest > 20 {
		t.Errorf("hottest uniform key drawn %d times", hottest)
	}
}

func TestValueChecks(t *testing.T) {
	key := []byte("B000000001-AXYZ-1234567890")
	v := make([]byte, ValueLen)
	fillValue(v, 9, key, 2, 77)
	if err := checkValue(9, key, v); err != nil {
		t.Fatal(err)
	}
	if w, s := valueWriter(v); w != 2 || s != 77 {
		t.Errorf("writer %d seq %d", w, s)
	}
	if checkValue(9, []byte("other"), v) == nil || checkValue(10, key, v) == nil {
		t.Error("value passed for another key or seed")
	}
	v[ValueLen-1] ^= 1
	if checkValue(9, key, v) == nil {
		t.Error("corrupt filler passed")
	}
}

func TestCheckScan(t *testing.T) {
	b := &bench{seed: 1}
	b.sorted = sortedCopy(preloadKeys(100, 6))
	fresh := []byte(string(b.sorted[10]) + "~") // sorts between sorted[10] and sorted[11]
	resp := func(keys ...[]byte) *netkv.Response {
		rp := &netkv.Response{}
		for _, k := range keys {
			v := make([]byte, ValueLen)
			fillValue(v, b.seed, k, 1, 1)
			rp.Keys, rp.Vals = append(rp.Keys, k), append(rp.Vals, v)
		}
		return rp
	}
	s := b.sorted
	for _, tc := range []struct {
		name  string
		idx   int
		limit int
		rp    *netkv.Response
		ok    bool
	}{
		{"exact", 10, 3, resp(s[10], fresh, s[11]), true},
		{"end of keyspace", 98, 5, resp(s[98], s[99]), true},
		{"over limit", 10, 1, resp(s[10], s[11]), false},
		{"below start", 10, 2, resp(s[9], s[10]), false},
		{"out of order", 10, 2, resp(s[11], s[10]), false},
		{"skipped key", 10, 2, resp(s[10], s[12]), false},
		{"short before end", 10, 5, resp(s[10], s[11]), false},
	} {
		err := b.checkScan(s[tc.idx], tc.idx, tc.limit, tc.rp)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}

// TestBenchmarkJSONIsCurrent pins BENCHMARK.json to the tables it is
// generated from (go run . --manifest > ../BENCHMARK.json).
func TestBenchmarkJSONIsCurrent(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with go run . --manifest")
	}
}
