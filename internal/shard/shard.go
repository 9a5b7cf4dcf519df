// Package shard implements a range-partitioned store that composes N
// independent Wormhole instances behind the shared index.Index /
// index.Ordered interfaces. Each shard is a full core.Wormhole with its
// own QSBR domain and meta writer lock, so structural writers in different
// shards never contend and reader grace periods stay short as core counts
// grow — the multicore scaling the paper targets in Figures 9/10/12.
//
// Keys are routed by an immutable range Partitioner (sampled-anchor
// quantiles via FromSample, or uniform byte ranges), which keeps shards'
// keyspaces disjoint and ordered: a cross-shard Scan is a concatenation of
// per-shard scans, never a merge. The batched API (GetBatch / SetBatch /
// DelBatch) groups keys by shard before executing, amortizing routing and
// per-shard synchronization the way netkv amortizes the wire with its
// 800-operation batches, and fans large batches out across shards.
package shard

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/wormhole/internal/core"
	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/vfs"
	"github.com/repro/wormhole/internal/wal"
)

// defaultShards is the shard count used when Options.Shards is zero: one
// shard per available CPU, capped like the paper's 16-core NUMA node, is
// the starting point the shard-sweep bench experiment refines.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	if n < 1 {
		n = 1
	}
	return n
}

// parallelBatch is the batch size above which the batched operations fan
// out across shards on separate goroutines; below it the goroutine
// handoff costs more than it saves.
const parallelBatch = 256

// Options configures a Store. The zero value selects min(GOMAXPROCS, 16)
// uniform-range shards of default-configured Wormholes.
type Options struct {
	// Shards is the number of partitions (0: min(GOMAXPROCS, 16)).
	Shards int
	// Sample, when non-empty, supplies keys representative of the
	// workload; boundaries are placed at sampled-anchor quantiles
	// (FromSample) instead of uniform byte ranges.
	Sample [][]byte
	// Partitioner overrides Shards and Sample with explicit boundaries.
	Partitioner *Partitioner
	// Core configures every shard's Wormhole; the zero value means
	// core.DefaultOptions().
	Core core.Options
	// Dir, when set via Open, roots the durable layout: a MANIFEST pinning
	// the partitioner plus one WAL+snapshot directory per shard. New
	// ignores it (volatile store).
	Dir string
	// Durability configures every shard's WAL (sync policy, flush
	// interval); meaningful only with Open.
	Durability wal.Options
}

// Store is a range-partitioned composition of Wormhole indexes. All
// operations are safe for concurrent use (each shard is a thread-safe
// Wormhole); the aliasing rules match package wormhole: key and value
// buffers are retained by reference.
type Store struct {
	part   *Partitioner
	shards []*core.Wormhole

	// Durable state (nil/empty when the store is volatile): one WAL+
	// snapshot pair per shard, registered as that shard's mutation hook.
	dir  string
	wals []*wal.Store
	fs   vfs.FS

	// Replication epoch state (epoch.go). Durable stores persist it in
	// the MANIFEST; volatile stores keep it in memory only.
	epochMu  sync.Mutex
	epoch    uint64
	history  []EpochEntry
	fencedBy uint64
	fenced   atomic.Bool // mirrors fencedBy != 0 for lock-free write checks

	// bmx is the armed batch-path instrument bundle (SetBatchMetrics);
	// nil records nothing.
	bmx atomic.Pointer[BatchMetrics]
}

// New creates an empty sharded store.
func New(o Options) *Store {
	if o.Shards <= 0 {
		o.Shards = defaultShards()
	}
	if o.Core == (core.Options{}) {
		o.Core = core.DefaultOptions()
	}
	p := o.Partitioner
	if p == nil {
		if len(o.Sample) > 0 {
			p = FromSample(o.Shards, o.Sample)
		} else {
			p = NewUniform(o.Shards)
		}
	}
	shards := make([]*core.Wormhole, p.NumShards())
	for i := range shards {
		shards[i] = core.New(o.Core)
	}
	return &Store{part: p, shards: shards, epoch: 1, history: []EpochEntry{{Epoch: 1}}}
}

// NumShards returns the number of partitions.
func (s *Store) NumShards() int { return len(s.shards) }

// ShardOf returns the partition that owns key.
func (s *Store) ShardOf(key []byte) int { return s.part.Locate(key) }

// Bounds returns the partitioner's boundary keys (shared slice headers; do
// not mutate). Replication ships them in the subscribe handshake: leader
// and follower must route byte-identically or per-shard streams would land
// keys in the wrong follower shard.
func (s *Store) Bounds() [][]byte { return s.part.Bounds() }

// ShardScan visits shard i's keys >= start in ascending order until fn
// returns false — one partition's slice of Scan. The follower's snapshot
// catch-up merges a streamed shard snapshot against exactly this walk.
func (s *Store) ShardScan(i int, start []byte, fn func(key, val []byte) bool) {
	s.shards[i].Scan(start, fn)
}

// Get returns the value stored under key.
func (s *Store) Get(key []byte) ([]byte, bool) {
	return s.shards[s.part.Locate(key)].Get(key)
}

// Set inserts or replaces key. Key and value buffers are retained.
func (s *Store) Set(key, val []byte) {
	s.shards[s.part.Locate(key)].Set(key, val)
}

// Del removes key, reporting whether it was present.
func (s *Store) Del(key []byte) bool {
	return s.shards[s.part.Locate(key)].Del(key)
}

// Count returns the number of keys across all shards.
func (s *Store) Count() int64 {
	var n int64
	for _, w := range s.shards {
		n += w.Count()
	}
	return n
}

// Footprint returns the approximate heap bytes held across all shards.
func (s *Store) Footprint() int64 {
	var n int64
	for _, w := range s.shards {
		n += w.Footprint()
	}
	return n
}

// ShardCounts reports the per-shard key counts, for balance diagnostics.
func (s *Store) ShardCounts() []int64 {
	counts := make([]int64, len(s.shards))
	for i, w := range s.shards {
		counts[i] = w.Count()
	}
	return counts
}

// Scan visits keys >= start in ascending order until fn returns false.
// Because shards partition the keyspace by range, the stitched scan simply
// runs the owning shard from start and every following shard from its
// smallest key; order is global without any merging.
func (s *Store) Scan(start []byte, fn func(key, val []byte) bool) {
	first := 0
	if len(start) > 0 {
		first = s.part.Locate(start)
	}
	more := true
	for i := first; i < len(s.shards) && more; i++ {
		from := start
		if i > first {
			from = nil
		}
		s.shards[i].Scan(from, func(k, v []byte) bool {
			more = fn(k, v)
			return more
		})
	}
}

// ScanDesc visits keys <= start in descending order until fn returns
// false (nil start: from the largest key). The mirror of Scan: the owning
// shard runs down from start, then every preceding shard from its largest
// key. Partitions are ordered and disjoint, so stitching per-shard
// cursors in partition order is already the k-way merge a general
// partitioner would need — with zero per-key comparison overhead.
func (s *Store) ScanDesc(start []byte, fn func(key, val []byte) bool) {
	first := len(s.shards) - 1
	if start != nil {
		first = s.part.Locate(start)
	}
	more := true
	for i := first; i >= 0 && more; i-- {
		from := start
		if i < first {
			from = nil
		}
		s.shards[i].ScanDesc(from, func(k, v []byte) bool {
			more = fn(k, v)
			return more
		})
	}
}

// RangeAsc collects up to limit pairs with key >= start, ascending.
func (s *Store) RangeAsc(start []byte, limit int) (keys, vals [][]byte) {
	return collectRange(limit, start, s.Scan)
}

// RangeDesc collects up to limit pairs with key <= start, descending (nil
// start: from the largest key).
func (s *Store) RangeDesc(start []byte, limit int) (keys, vals [][]byte) {
	return collectRange(limit, start, s.ScanDesc)
}

func collectRange(limit int, start []byte, scan func([]byte, func(k, v []byte) bool)) (keys, vals [][]byte) {
	if limit <= 0 {
		return nil, nil
	}
	keys = make([][]byte, 0, limit)
	vals = make([][]byte, 0, limit)
	scan(start, func(k, v []byte) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return len(keys) < limit
	})
	return keys, vals
}

// group partitions batch indexes by owning shard, preserving the batch's
// relative order inside each shard so same-key operations in one batch
// keep their program order (equal keys always route to the same shard).
func (s *Store) group(keys [][]byte) [][]int {
	return s.groupInto(make([][]int, len(s.shards)), keys)
}

// groupInto is group over caller-owned lists, emptied and refilled, so a
// long-lived caller (a Reader) regroups every batch without allocating.
func (s *Store) groupInto(groups [][]int, keys [][]byte) [][]int {
	for g := range groups {
		groups[g] = groups[g][:0]
	}
	for i, k := range keys {
		g := s.part.Locate(k)
		groups[g] = append(groups[g], i)
	}
	return groups
}

// fanOut runs run(shard, indexes) for every non-empty group, on separate
// goroutines when the batch is large enough to amortize the handoff.
func (s *Store) fanOut(groups [][]int, total int, run func(shard int, idxs []int)) {
	active := 0
	for _, g := range groups {
		if len(g) > 0 {
			active++
		}
	}
	if active <= 1 || total < parallelBatch {
		for sh, g := range groups {
			if len(g) > 0 {
				run(sh, g)
			}
		}
		return
	}
	var wg sync.WaitGroup
	for sh, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, g []int) {
			defer wg.Done()
			run(sh, g)
		}(sh, g)
	}
	wg.Wait()
}

// GetBatch looks up keys grouped by shard; vals[i], found[i] answer
// keys[i]. Results for distinct shards may be produced concurrently, and
// each shard group enters one QSBR reader section for its whole group
// instead of one per key.
func (s *Store) GetBatch(keys [][]byte) (vals [][]byte, found []bool) {
	var t0 time.Time
	bmx := s.bmx.Load()
	if bmx != nil {
		t0 = time.Now()
	}
	vals = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	s.fanOut(s.group(keys), len(keys), func(sh int, idxs []int) {
		s.shards[sh].GetBatch(keys, vals, found, idxs)
	})
	if bmx != nil {
		bmx.observeBatch(bmx.GetBatchSeconds, len(keys), t0)
	}
	return vals, found
}

// Reader is an amortized handle over the whole store: one pinned
// core.Reader per shard, claimed once and reused, so a long-lived
// goroutine pays each shard's QSBR slot acquisition once instead of per
// request. It also writes with a deferred durability wait (Set, Del,
// then one Commit), so a run of writes waits once per shard it touched.
// A Reader must not be used concurrently; Close releases every per-shard
// handle.
type Reader struct {
	s  *Store
	rs []*core.Reader

	// GetBatch's grouping lists and result slots, reused call to call.
	groups [][]int
	vals   [][]byte
	found  []bool

	// pend holds, per shard, the largest token of the writes not yet
	// committed; dirty marks the shards that have any (a write whose
	// log append failed has token 0 but still needs its Commit to
	// report the failure).
	pend     []uint64
	dirty    []bool
	anyDirty bool
}

// NewReader returns a handle bound to this store.
func (s *Store) NewReader() *Reader {
	rs := make([]*core.Reader, len(s.shards))
	for i, w := range s.shards {
		rs[i] = w.NewReader()
	}
	return &Reader{s: s, rs: rs, groups: make([][]int, len(s.shards)),
		pend: make([]uint64, len(s.shards)), dirty: make([]bool, len(s.shards))}
}

// NewReadHandle implements index.ReadPinner.
func (s *Store) NewReadHandle() index.ReadHandle { return s.NewReader() }

// Get returns the value stored under key, through the owning shard's
// pinned reader.
func (r *Reader) Get(key []byte) ([]byte, bool) {
	return r.rs[r.s.part.Locate(key)].Get(key)
}

// GetBatch looks up keys grouped by shard through the pinned readers;
// vals[i], found[i] answer keys[i]. Groups run sequentially on the
// caller's goroutine (the handles are single-goroutine); use the store's
// GetBatch for fan-out across shards. The result slices are the handle's
// own and stay valid only until its next GetBatch.
func (r *Reader) GetBatch(keys [][]byte) (vals [][]byte, found []bool) {
	var t0 time.Time
	bmx := r.s.bmx.Load()
	if bmx != nil {
		t0 = time.Now()
	}
	vals = slices.Grow(r.vals[:0], len(keys))[:len(keys)]
	found = slices.Grow(r.found[:0], len(keys))[:len(keys)]
	r.vals, r.found = vals, found
	for sh, idxs := range r.s.groupInto(r.groups, keys) {
		if len(idxs) > 0 {
			r.rs[sh].GetBatch(keys, vals, found, idxs)
		}
	}
	if bmx != nil {
		bmx.observeBatch(bmx.GetBatchSeconds, len(keys), t0)
	}
	return vals, found
}

// Scan visits keys >= start ascending until fn returns false, stitching
// the shards' lock-free scan cursors through the handle's pinned per-shard
// readers — a long-lived goroutine (a netkv connection) pays no per-scan
// reader registration on any shard.
func (r *Reader) Scan(start []byte, fn func(key, val []byte) bool) {
	first := 0
	if len(start) > 0 {
		first = r.s.part.Locate(start)
	}
	more := true
	for i := first; i < len(r.rs) && more; i++ {
		from := start
		if i > first {
			from = nil
		}
		r.rs[i].Scan(from, func(k, v []byte) bool {
			more = fn(k, v)
			return more
		})
	}
}

// ScanDesc visits keys <= start descending until fn returns false (nil
// start: from the largest key), through the pinned per-shard readers.
func (r *Reader) ScanDesc(start []byte, fn func(key, val []byte) bool) {
	first := len(r.rs) - 1
	if start != nil {
		first = r.s.part.Locate(start)
	}
	more := true
	for i := first; i >= 0 && more; i-- {
		from := start
		if i < first {
			from = nil
		}
		r.rs[i].ScanDesc(from, func(k, v []byte) bool {
			more = fn(k, v)
			return more
		})
	}
}

// Set inserts or replaces key without waiting for durability; the
// write is visible at once and durable after the next Commit. Key and
// value buffers are retained.
func (r *Reader) Set(key, val []byte) {
	sh := r.s.part.Locate(key)
	r.pending(sh, r.s.shards[sh].SetNoWait(key, val))
}

// Del removes key, reporting whether it was present, without waiting
// for durability; a removal is durable after the next Commit.
func (r *Reader) Del(key []byte) bool {
	sh := r.s.part.Locate(key)
	found, token := r.s.shards[sh].DelNoWait(key)
	if found {
		r.pending(sh, token)
	}
	return found
}

func (r *Reader) pending(sh int, token uint64) {
	r.pend[sh] = max(r.pend[sh], token)
	r.dirty[sh] = true
	r.anyDirty = true
}

// Commit waits until every write made through the handle since the last
// Commit is durable, once per shard those writes touched, and returns
// the first durability failure. Every touched shard is waited on even
// after one fails, and the handle starts clean either way.
func (r *Reader) Commit() error {
	if !r.anyDirty {
		return nil
	}
	r.anyDirty = false
	var first error
	for sh, d := range r.dirty {
		if !d {
			continue
		}
		if err := r.s.shards[sh].Commit(r.pend[sh]); err != nil && first == nil {
			first = err
		}
		r.pend[sh], r.dirty[sh] = 0, false
	}
	return first
}

// Close releases every per-shard reader slot.
func (r *Reader) Close() {
	for _, cr := range r.rs {
		cr.Close()
	}
	r.rs = nil
}

// SetBatch inserts or replaces keys[i] -> vals[i], grouped by shard.
// Duplicate keys within one batch apply in batch order. Each shard's
// group waits for durability once, after its last write, and SetBatch
// returns once every group is durable. A durability failure is kept by
// the shard's WAL (it goes degraded), as for Set.
func (s *Store) SetBatch(keys, vals [][]byte) {
	var t0 time.Time
	bmx := s.bmx.Load()
	if bmx != nil {
		t0 = time.Now()
	}
	s.fanOut(s.group(keys), len(keys), func(sh int, idxs []int) {
		w := s.shards[sh]
		var token uint64
		for _, i := range idxs {
			token = max(token, w.SetNoWait(keys[i], vals[i]))
		}
		w.Commit(token)
	})
	if bmx != nil {
		bmx.observeBatch(bmx.SetBatchSeconds, len(keys), t0)
	}
}

// DelBatch removes keys grouped by shard, reporting presence per key.
// Like SetBatch, it waits for durability once per shard group.
func (s *Store) DelBatch(keys [][]byte) []bool {
	var t0 time.Time
	bmx := s.bmx.Load()
	if bmx != nil {
		t0 = time.Now()
	}
	found := make([]bool, len(keys))
	s.fanOut(s.group(keys), len(keys), func(sh int, idxs []int) {
		w := s.shards[sh]
		var token uint64
		for _, i := range idxs {
			var t uint64 // 0 for an absent key: nothing to wait for
			found[i], t = w.DelNoWait(keys[i])
			token = max(token, t)
		}
		w.Commit(token)
	})
	if bmx != nil {
		bmx.observeBatch(bmx.DelBatchSeconds, len(keys), t0)
	}
	return found
}

// Stats aggregates the structural statistics of every shard. Call it on a
// quiescent store.
func (s *Store) Stats() core.Stats {
	var agg core.Stats
	for _, w := range s.shards {
		st := w.Stats()
		agg.Keys += st.Keys
		agg.Leaves += st.Leaves
		agg.FatLeaves += st.FatLeaves
		agg.MetaItems += st.MetaItems
		agg.LeafItems += st.LeafItems
		agg.MetaBuckets += st.MetaBuckets
		if st.MaxAnchorLen > agg.MaxAnchorLen {
			agg.MaxAnchorLen = st.MaxAnchorLen
		}
		agg.AvgAnchorLen += st.AvgAnchorLen * float64(st.Leaves)
	}
	if agg.Leaves > 0 {
		agg.AvgAnchorLen /= float64(agg.Leaves)
	}
	return agg
}
