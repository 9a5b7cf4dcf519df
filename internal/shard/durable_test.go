package shard

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/repro/wormhole/internal/metrics"
	"github.com/repro/wormhole/internal/vfs"
	"github.com/repro/wormhole/internal/wal"
)

func TestDurableOpenWriteReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Durable() {
		t.Fatal("Open returned a volatile store")
	}
	model := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%05d", i)
		v := fmt.Sprintf("val-%d", i)
		s.Set([]byte(k), []byte(v))
		model[k] = v
	}
	for i := 0; i < 2000; i += 7 {
		k := fmt.Sprintf("key-%05d", i)
		s.Del([]byte(k))
		delete(model, k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if int(s2.Count()) != len(model) {
		t.Fatalf("recovered %d keys, want %d", s2.Count(), len(model))
	}
	for k, v := range model {
		got, ok := s2.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("recovered Get(%s) = %q,%v want %q", k, got, ok, v)
		}
	}
	// Order must survive too: a full scan is globally sorted.
	var prev []byte
	n := 0
	s2.Scan(nil, func(k, _ []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("recovered scan out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if n != len(model) {
		t.Fatalf("recovered scan visited %d keys, want %d", n, len(model))
	}
}

func TestDurableManifestPinsPartitioning(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{[]byte("alpha"), []byte("\x10mid"), []byte("\xf0high")}
	for _, k := range keys {
		s.Set(k, k)
	}
	routes := make([]int, len(keys))
	for i, k := range keys {
		routes[i] = s.ShardOf(k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen asking for a different shard count and a sample: the MANIFEST
	// must win, keeping every key reachable in its original shard.
	s2, err := Open(Options{Dir: dir, Shards: 2, Sample: keys})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumShards() != 5 {
		t.Fatalf("reopen changed shard count to %d, want 5", s2.NumShards())
	}
	for i, k := range keys {
		if got := s2.ShardOf(k); got != routes[i] {
			t.Fatalf("key %q rerouted from shard %d to %d", k, routes[i], got)
		}
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("key %q unreachable after reopen", k)
		}
	}
}

func TestDurableCorruptManifestFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open succeeded with a corrupt MANIFEST; silent repartitioning would orphan keys")
	}
}

func TestDurableSnapshotAndBatchedOps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 3, Durability: wal.Options{Sync: wal.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	var keys, vals [][]byte
	for i := 0; i < 1500; i++ {
		keys = append(keys, []byte(fmt.Sprintf("b%05d", i)))
		vals = append(vals, []byte(fmt.Sprintf("v%d", i)))
	}
	s.SetBatch(keys, vals) // batched mutations must be logged too
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.DelBatch(keys[:100]) // post-snapshot WAL tail
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.RecoveredPairs() != 1500 {
		t.Fatalf("snapshots restored %d pairs, want 1500", s2.RecoveredPairs())
	}
	if s2.RecoveredRecords() != 100 {
		t.Fatalf("WAL tail replayed %d records, want 100", s2.RecoveredRecords())
	}
	if int(s2.Count()) != 1400 {
		t.Fatalf("recovered %d keys, want 1400", s2.Count())
	}
	_, found := s2.GetBatch(keys)
	for i, ok := range found {
		if want := i >= 100; ok != want {
			t.Fatalf("GetBatch[%d] = %v, want %v", i, ok, want)
		}
	}
}

func TestVolatileLifecycleNoOps(t *testing.T) {
	s := New(Options{Shards: 2})
	if s.Durable() {
		t.Fatal("New returned a durable store")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchWritesCommitOncePerShard: under SyncAlways, SetBatch and
// DelBatch wait for exactly one fsync per shard they touch — not one per
// key — on both the inline and the fanned-out path, and a Reader's
// no-wait writes cost no fsync until one Commit, which costs one per
// touched shard. Every committed write survives a power cut.
func TestBatchWritesCommitOncePerShard(t *testing.T) {
	mem := vfs.NewMemFS()
	mx := wal.NewMetrics(metrics.NewRegistry())
	var keys [][]byte
	for i := 0; i < 2*parallelBatch; i++ {
		keys = append(keys, []byte(fmt.Sprintf("c%05d", i)))
	}
	s, err := Open(Options{Dir: "/db", Shards: 2, Sample: keys,
		Durability: wal.Options{Sync: wal.SyncAlways, FS: mem, Metrics: mx, NoSelfHeal: true}})
	if err != nil {
		t.Fatal(err)
	}
	var first [][]byte // the keys shard 0 owns
	for _, k := range keys {
		if s.ShardOf(k) == 0 {
			first = append(first, k)
		}
	}
	if len(first) == 0 || len(first) == len(keys) {
		t.Fatalf("sample split the keys %d/%d", len(first), len(keys)-len(first))
	}
	fsyncs := func(op func()) uint64 {
		f0 := mx.Fsyncs.Value()
		op()
		return mx.Fsyncs.Value() - f0
	}
	for _, c := range []struct {
		name string
		op   func()
		want uint64
	}{
		{"SetBatch of 16 keys on both shards", func() { s.SetBatch(keys[len(keys)/2-8:len(keys)/2+8], keys) }, 2},
		{"SetBatch fanned out over both shards", func() { s.SetBatch(keys, keys) }, 2},
		{"SetBatch on one shard", func() { s.SetBatch(first, first) }, 1},
		{"DelBatch of absent keys", func() { s.DelBatch([][]byte{[]byte("absent"), []byte("zz")}) }, 0},
		{"DelBatch on one shard", func() { s.DelBatch(first[:len(first)/2]) }, 1},
		{"DelBatch fanned out over both shards", func() { s.DelBatch(keys) }, 2},
	} {
		if n := fsyncs(c.op); n != c.want {
			t.Errorf("%s: %d fsyncs, want %d", c.name, n, c.want)
		}
	}

	r := s.NewReader()
	defer r.Close()
	if n := fsyncs(func() {
		for _, k := range keys[:32] {
			r.Set(k, []byte("r"))
		}
		r.Del(keys[len(keys)-1]) // absent by now: no write
	}); n != 0 {
		t.Fatalf("no-wait writes cost %d fsyncs before Commit", n)
	}
	if n := fsyncs(func() {
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Commit of writes on one shard: %d fsyncs, want 1", n)
	}
	if n := fsyncs(func() {
		r.Set(first[0], []byte("r2"))
		r.Set(keys[len(keys)-1], []byte("r2"))
		if !r.Del(keys[1]) {
			t.Error("Del of a present key reported absent")
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Fatalf("Commit of writes on both shards, then an empty Commit: %d fsyncs, want 2", n)
	}

	mem.Crash()
	mem.Restart()
	s2, err := Open(Options{Dir: "/db", Durability: wal.Options{FS: mem}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	want := map[string]string{}
	for _, k := range keys[:32] {
		want[string(k)] = "r"
	}
	want[string(first[0])] = "r2"
	want[string(keys[len(keys)-1])] = "r2"
	want[string(keys[1])] = ""
	if int(s2.Count()) != len(want)-1 {
		t.Fatalf("recovered %d keys, want %d", s2.Count(), len(want)-1)
	}
	for k, v := range want {
		got, ok := s2.Get([]byte(k))
		if ok != (v != "") || string(got) != v {
			t.Fatalf("recovered %q = %q, %v; want %q", k, got, ok, v)
		}
	}
}
