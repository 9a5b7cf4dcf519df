package core

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// kv is one key-value item. hash is the CRC32-C of the key, computed once
// at insertion; its low 16 bits play the role of the paper's leaf tag
// (§3.2). Key and value buffers are owned by the index once inserted and
// must not be mutated by the caller.
//
// The key is held as a (pointer, length) pair behind key() rather than a
// 24-byte slice header: an item's capacity is never used, and dropping it
// packs a kv into 32 bytes — half a cache line, and a third less slab
// memory per key than the slice form.
//
// The key and hash are immutable after construction. The value is stored
// as an atomic (pointer, length) pair so a lock-free reader racing an
// overwrite reads both halves without a data race; the pair itself can
// still be torn (old pointer, new length), which is exactly what the
// leaf's seqlock detects — writers bump it around setValue, and an
// optimistic reader discards any value whose enclosing read saw the
// sequence move. Lock-holding readers can't race writers at all.
//
// A kv must never be copied by value (its address is published in tag
// arrays); all code handles *kv. Storage comes from the owning leaf's
// slab (newKV).
type kv struct {
	hash uint32
	klen uint32
	kptr *byte
	vptr atomic.Pointer[byte]
	vlen atomic.Int64
}

// key returns the item's immutable key. A nil key reads back nil, an
// empty non-nil one as an empty non-nil slice.
func (it *kv) key() []byte { return unsafe.Slice(it.kptr, it.klen) }

// setKey stores key at construction time; keys must fit the 32-bit length.
func (it *kv) setKey(key []byte) {
	if uint64(len(key)) > math.MaxUint32 {
		panic("core: key longer than 4 GiB")
	}
	it.kptr, it.klen = unsafe.SliceData(key), uint32(len(key))
}

// value returns the current value slice. A nil stored value reads back
// nil; an empty one may read back nil as well (the pointer of an empty
// slice is unspecified). Only lock-holding readers may call it: it
// materializes the slice from the (vptr, vlen) pair, which is only
// consistent under the leaf lock. Optimistic readers use valueParts +
// valueSlice with a seqlock validation in between — materializing a torn
// pair, even without dereferencing it, would fabricate a slice straddling
// allocations.
func (it *kv) value() []byte {
	p, n := it.valueParts()
	return valueSlice(p, n)
}

// valueParts loads the raw value pair; each load is atomic but the pair
// may be torn unless the caller holds the leaf lock or validates the
// seqlock afterwards.
func (it *kv) valueParts() (*byte, int64) {
	return it.vptr.Load(), it.vlen.Load()
}

// valueSlice materializes a validated (pointer, length) pair.
func valueSlice(p *byte, n int64) []byte {
	if p == nil {
		return nil
	}
	return unsafe.Slice(p, n)
}

// setValue publishes v as the new value. Concurrent-path callers must
// bump the leaf seqlock around the call (see kv's comment); the two
// stores are individually atomic but only the seqlock makes the pair
// observable as a unit.
func (it *kv) setValue(v []byte) {
	it.vlen.Store(int64(len(v)))
	it.vptr.Store(unsafe.SliceData(v))
}

// tagEnt is one tag-array slot: the item's full hash inline (its low bits
// are the paper's 16-bit tag; we keep all 32 to order the array) plus the
// item pointer, dereferenced only on a hash match.
type tagEnt struct {
	hash uint32
	it   *kv
}

// tagTailMax bounds the leaf's unsorted tag tail; the tail is folded
// into the sorted base on the insert that would exceed it.
const tagTailMax = 15

// The leaf's hash index — the paper's sorted tag array (Figure 7, §3.2)
// — is split across two structures tuned for the lock-free reader:
//
//   - The base is an immutable published block (tagBlock) holding the
//     hashes and the item pointers as two parallel arrays in (hash, key)
//     order. The dense []uint32 hash array is what direct positioning
//     walks: 4 bytes per item, so the speculative start position and the
//     true position almost always share one cache line, where an
//     interleaved (hash, pointer) layout pays a miss every 4 steps. The
//     item pointer array is touched exactly once, on the final match.
//   - The tail is a fixed array *inline in the leaf*, holding up to
//     tagTailMax recent inserts in arrival order. Inserting stores one
//     hash, one pointer, and the new length — all atomics on leaf-local
//     cache lines, no allocation, no copying — and the O(leaf) fold into
//     a fresh base block is paid once per tagTailMax+1 inserts. This is
//     the paper's delayed, batched sorting (Algorithm 3's incSort)
//     applied to the tag array.
//
// Both structures may be read without any lock: the block is immutable
// and self-consistent, and the tail's individual loads are atomic (item
// pointers are nil-checked before dereferencing, and a kv reachable from
// a stale slot is still a live kv). What a racing reader can observe is a
// mixed generation — a fold's new base with the old tail, a mid-insert
// length/slot mismatch — and every writer that creates such a window
// does so inside a seqlock bracket, so the optimistic reader's sequence
// validation discards exactly those reads.

// tagBlockCap sizes the block's inline arrays: the default 128-key leaf
// plus a full tail, so that the whole block fits Go's 2048-byte size
// class. Leaves that outgrow it (fat leaves, large custom LeafCap) spill
// to the slice-based big form.
const tagBlockCap = 144

// tagBlock is one immutable published base: hashes[i] == items[i].hash,
// ordered by (hash, key), with n entries. The count lives in the block
// header next to big, so one pointer load yields a consistent
// (hashes, items, order, n): no reader can pair a block with another
// block's count, and every index the walk derives from n stays inside the
// block's own arrays. A reader already reads the header line for big, so
// the count costs it no extra cache line, though the walk's start
// position waits on that line. The arrays are inline and fixed-size —
// block pointer → array data, no slice header in between.
//
// order is the published key-sorted view lock-free range scans walk:
// order[k] is the items index of the k-th smallest key. Indices, not a
// second pointer array — the array stays out of the garbage collector's
// pointer scans, and 16-bit indices cost a quarter of the pointer form's
// bytes, which matters because a block is reallocated on every fold, so
// its size is a write-path cost. The lookup side keeps its direct
// hashes[i]/items[i] layout (one less dependent load on the Get path);
// scans pay the one-hop items[order[k]] indirection per emitted pair,
// which long chunks pipeline well.
type tagBlock struct {
	big    *tagBlockBig // non-nil iff the entries exceed tagBlockCap
	n      int32        // entry count, in both forms
	hashes [tagBlockCap]uint32
	items  [tagBlockCap]*kv
	order  [tagBlockCap]uint16
}

// tagBlockAlloc is the size class a tagBlock occupies; the block must
// stay within it (TestLayoutSizes).
const tagBlockAlloc = 2048

// tagBlockBig is the overflow form for leaves beyond tagBlockCap items;
// its order indices are 32-bit, since a fat leaf has no size bound.
type tagBlockBig struct {
	hashes []uint32
	items  []*kv
	order  []int32
}

// emptyTagBlock is the zero-entry block shared by all fresh leaves.
var emptyTagBlock = &tagBlock{}

// view returns the block's lookup arrays.
func (b *tagBlock) view() ([]uint32, []*kv) {
	if bg := b.big; bg != nil {
		return bg.hashes, bg.items
	}
	return b.hashes[:b.n], b.items[:b.n]
}

// keyPos returns key's merge position in the block's key-sorted view.
func (b *tagBlock) keyPos(key []byte) int {
	if bg := b.big; bg != nil {
		return keyPosIn(bg.items, bg.order, key)
	}
	return keyPosIn(b.items[:b.n], b.order[:b.n], key)
}

// orderInto returns the block's key-sorted view widened to 32 bits: the
// big form's own array, or the inline one copied into dst (the fold,
// remove and invariant paths, which are written once for both forms).
func (b *tagBlock) orderInto(dst *[tagBlockCap]int32) []int32 {
	if bg := b.big; bg != nil {
		return bg.order
	}
	o := dst[:b.n]
	for i, x := range b.order[:b.n] {
		o[i] = int32(x)
	}
	return o
}

// newTagBlock allocates a base block for n entries (zero entries reuse
// emptyTagBlock) and returns its writable arrays (single writer; caller
// holds mu). order is the big form's own array or, for the inline form,
// stage[:n]: a 32-bit buffer that finishTagBlock narrows into the block,
// so the fold and remove walks are written once for both forms.
func newTagBlock(n int, stage *[tagBlockCap]int32) (*tagBlock, []uint32, []*kv, []int32) {
	switch {
	case n == 0:
		return emptyTagBlock, nil, nil, nil
	case n > tagBlockCap:
		bg := &tagBlockBig{hashes: make([]uint32, n), items: make([]*kv, n), order: make([]int32, n)}
		return &tagBlock{big: bg, n: int32(n)}, bg.hashes, bg.items, bg.order
	}
	b := &tagBlock{n: int32(n)}
	return b, b.hashes[:n], b.items[:n], stage[:n]
}

// finishTagBlock narrows an inline block's staged order into the block
// and returns the block, ready to publish.
func finishTagBlock(b *tagBlock, order []int32) *tagBlock {
	if b.big == nil {
		for i, x := range order {
			b.order[i] = uint16(x)
		}
	}
	return b
}

// makeTagBlock packs (hash, key)-sorted entries into a fresh block,
// deriving the key-sorted index view with one extra sort (cold paths
// only; the insert fold maintains it by position-merging instead).
func makeTagBlock(entries []tagEnt) *tagBlock {
	var stage [tagBlockCap]int32
	b, hashes, items, order := newTagBlock(len(entries), &stage)
	for i, e := range entries {
		hashes[i], items[i], order[i] = e.hash, e.it, int32(i)
	}
	// Sort the published array, not the staging buffer, which would
	// escape to the heap through the sort.
	b = finishTagBlock(b, order)
	if bg := b.big; bg != nil {
		sortOrderIdx(bg.items, bg.order)
	} else {
		sortOrderIdx(b.items[:b.n], b.order[:b.n])
	}
	return b
}

// sortOrderIdx orders an index view by the referenced items' keys.
func sortOrderIdx[O ordIdx](items []*kv, idx []O) {
	slices.SortFunc(idx, func(x, y O) int { return bytes.Compare(items[x].key(), items[y].key()) })
}

// ordIdx is the element type of a key-sorted index view: 16-bit in the
// inline block, 32-bit in the big form.
type ordIdx interface{ uint16 | int32 }

// lowerBoundIdx returns the first position in the key-sorted index view
// whose key is >= bound (incl) or > bound (!incl); len(idx) when none
// qualifies. A plain loop instead of sort.Search keeps callers
// closure-free.
func lowerBoundIdx[O ordIdx](items []*kv, idx []O, bound []byte, incl bool) int {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		cmp := bytes.Compare(items[idx[mid]].key(), bound)
		if cmp < 0 || (!incl && cmp == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// keyPosIn returns key's merge position in the key-sorted view, with a
// one-compare fast path for the common append-at-end (ascending insert)
// case.
func keyPosIn[O ordIdx](items []*kv, idx []O, key []byte) int {
	n := len(idx)
	if n == 0 || bytes.Compare(items[idx[n-1]].key(), key) < 0 {
		return n
	}
	return lowerBoundIdx(items, idx, key, true)
}

// tagsView is a point-in-time view of a leaf's hash index, materialized
// as entries for the cold paths (invariants, stats, merges); the hot
// lookup path reads the structures directly (findTags).
type tagsView struct {
	base, tail []tagEnt
}

// size returns the number of items the view covers.
func (v tagsView) size() int { return len(v.base) + len(v.tail) }

// all appends every entry (base then tail) to dst and returns it.
func (v tagsView) all(dst []tagEnt) []tagEnt {
	dst = append(dst, v.base...)
	dst = append(dst, v.tail...)
	return dst
}

// cmpTagEnts is the (hash, key) order of tag arrays.
func cmpTagEnts(x, y tagEnt) int {
	if x.hash != y.hash {
		if x.hash < y.hash {
			return -1
		}
		return 1
	}
	return bytes.Compare(x.it.key(), y.it.key())
}

// sortTagEnts orders entries by (hash, key). slices.SortFunc, not
// sort.Slice: the reflect-based swapper's write barriers dominated split
// and fold cost in profiles.
func sortTagEnts(a []tagEnt) {
	slices.SortFunc(a, cmpTagEnts)
}

// leafNode is one LeafList node (Figure 7).
//
// kvs holds items in insertion order: kvs[:sorted] is key-sorted, the tail
// is the unsorted append region. incSort merges the two on demand (range
// scan or split), which is the paper's delayed, batched sorting. kvs and
// sorted are guarded by mu; only lock-holding paths (writers, scans, the
// BaseWormhole key-sorted search) touch them.
//
// base, tailLen, tailHash and tailItem form the hash index lock-free
// readers search (see the tagBlock comment).
//
// seq is the leaf's seqlock word: even when the leaf is stable, odd while
// a writer is mutating the item set or overwriting a value in place. An
// optimistic reader snapshots seq, reads, and revalidates; on a collision
// it retries and eventually falls back to the mu.RLock path. Immutable
// snapshot publication already rules out torn tag arrays — the seqlock's
// jobs are certifying the in-place (vptr, vlen) value pairs, detecting an
// overlapping writer early, and bounding optimistic spinning under write
// pressure.
type leafNode struct {
	// The fields an optimistic reader touches — seq, version, dead, base,
	// tailLen, anchor — lead the struct so one cache line serves the whole
	// leaf-header read; mu and the writer-side bookkeeping follow.
	seq atomic.Uint64
	// version is the "expected version" of §2.5: set to (current table
	// version + 1) while the leaf is locked for a split/merge. A reader
	// that reached this leaf through an older table observes
	// version > tableVersion and restarts.
	version atomic.Uint64
	base    atomic.Pointer[tagBlock]
	tailLen atomic.Int32
	dead    atomic.Bool // set when the leaf is merged away (victim)
	anchor  atomic.Pointer[anchor]

	mu sync.RWMutex

	kvs    []*kv
	sorted int

	tailHash [tagTailMax]atomic.Uint32
	tailItem [tagTailMax]atomic.Pointer[kv]
	// tailPos[i] is tailItem[i]'s merge position in the published
	// key-sorted view: the index in the view before which the item sorts
	// (the count of base keys below it). The writer computes it
	// once per insert — one binary search on a path that already walks
	// the leaf — and keeps the tail slots (pos, key)-sorted, so scans
	// merge the tail into the sorted view straight from the slots,
	// comparing integers instead of keys and sorting nothing at read
	// time. Remove keeps positions consistent: those above a removed
	// base item's slot shift down by one (a monotone adjustment, so the
	// slot order survives).
	tailPos [tagTailMax]atomic.Int32

	// slab is the append-only backing store for this leaf's own kv items
	// (chunked; a full chunk is abandoned to the items pointing into it
	// and replaced, so a *kv never moves). Guarded by mu.
	slab []kv

	prev, next atomic.Pointer[leafNode]
}

func newLeafNode(a anchor, capHint int) *leafNode {
	l := &leafNode{
		kvs: make([]*kv, 0, capHint),
	}
	l.base.Store(emptyTagBlock)
	l.anchor.Store(&a)
	return l
}

// tags returns an entry view of the current hash index (cold paths; the
// lookup path is findTags). Callers needing a consistent view hold mu.
func (l *leafNode) tags() tagsView {
	hashes, items := l.base.Load().view()
	v := tagsView{}
	if len(hashes) > 0 {
		v.base = make([]tagEnt, len(hashes))
		for i, h := range hashes {
			v.base[i] = tagEnt{hash: h, it: items[i]}
		}
	}
	tl := int(l.tailLen.Load())
	for i := 0; i < tl && i < tagTailMax; i++ {
		v.tail = append(v.tail, tagEnt{hash: l.tailHash[i].Load(), it: l.tailItem[i].Load()})
	}
	return v
}

// setTags publishes entries ((hash, key)-sorted) as the new base block
// and empties the tail; caller holds mu.
func (l *leafNode) setTags(entries []tagEnt) {
	l.base.Store(makeTagBlock(entries))
	l.tailLen.Store(0)
}

// findTags locates (h, key) in the hash index: positioned search over the
// base block's dense hash array (§3.2's direct positioning or binary
// search), then — on a miss only — a linear scan of the short inline
// tail. Safe without any lock; optimistic callers bracket it with the
// seqlock (see the tagBlock comment for why no read here can fault).
func (l *leafNode) findTags(h uint32, key []byte, directPos bool) *kv {
	hashes, items := l.base.Load().view()
	if directPos && len(items) > 0 {
		// Touch the item slot at the speculative position while the hash
		// walk's own loads are in flight; the final position is almost
		// always on the same or an adjacent line, so the item-array miss
		// overlaps the hash-array miss instead of following it. The
		// comparison feeds a benign branch so the load stays live.
		if items[int(uint64(h)*uint64(len(items))>>32)] == nil && h == 0 {
			return nil
		}
	}
	if i := tagPos(hashes, h, directPos); i < len(hashes) {
		for ; i < len(hashes) && hashes[i] == h; i++ {
			if it := items[i]; it != nil && bytes.Equal(it.key(), key) {
				return it
			}
		}
	}
	tl := int(l.tailLen.Load())
	for i := 0; i < tl && i < tagTailMax; i++ {
		if l.tailHash[i].Load() == h {
			if it := l.tailItem[i].Load(); it != nil && bytes.Equal(it.key(), key) {
				return it
			}
		}
	}
	return nil
}

// beginMutate/endMutate bracket every item-set mutation and every
// in-place value overwrite with the seqlock (caller holds mu).
func (l *leafNode) beginMutate() { l.seq.Add(1) }
func (l *leafNode) endMutate()   { l.seq.Add(1) }

// slabChunk is the kv-slab growth unit cap: 16 items, 512 bytes. Small
// chunks bound the slack a leaf strands in its newest chunk and in chunks
// kept alive by a few surviving items after splits move the rest away.
const slabChunk = 16

// newKV allocates an item from l's slab (caller holds l.mu) and charges
// any new chunk to the index's slab account. Chunks are never reallocated
// in place — kv addresses are stable for the life of the index, which
// both the published tag arrays and the no-copy rule on kv (it embeds
// atomics) rely on.
func (w *Wormhole) newKV(l *leafNode, h uint32, key, val []byte) *kv {
	if len(l.slab) == cap(l.slab) {
		w.newSlab(l, min(max(cap(l.slab)*2, 8), slabChunk))
	}
	l.slab = l.slab[:len(l.slab)+1]
	it := &l.slab[len(l.slab)-1]
	it.hash = h
	it.setKey(key)
	if val != nil {
		it.setValue(val)
	}
	return it
}

// newSlab gives l a fresh slab chunk of n items and charges it to the
// index's slab account (caller holds l.mu).
func (w *Wormhole) newSlab(l *leafNode, n int) {
	l.slab = make([]kv, 0, n)
	w.slabBytes.Add(int64(n) * int64(unsafe.Sizeof(kv{})))
}

func (l *leafNode) size() int { return len(l.kvs) }

// tagPos returns the first index in the sorted hash array a whose value
// is >= h (== len(a) when every hash is smaller).
//
// With directPos the start index is speculated as hash*size/2^32 — with a
// uniform hash this lands within a step or two of the right run (§3.2's
// direct speculative positioning), and on the dense 4-byte array the
// speculation and the true position almost always share a cache line.
// Otherwise a binary search is used.
func tagPos(a []uint32, h uint32, directPos bool) int {
	n := len(a)
	if n == 0 {
		return 0
	}
	if !directPos {
		return sort.Search(n, func(j int) bool { return a[j] >= h })
	}
	i := int(uint64(h) * uint64(n) >> 32)
	for i > 0 && h <= a[i-1] {
		i--
	}
	for i < n && h > a[i] {
		i++
	}
	return i
}

// find locates key in the leaf. With sortByTag it searches the published
// tag-array snapshot; without (BaseWormhole) it binary-searches the
// key-sorted region and scans the unsorted tail, comparing full keys —
// the behaviour Figure 11's ablation isolates. The kvs path requires mu
// to be held.
func (l *leafNode) find(h uint32, key []byte, sortByTag, directPos bool) *kv {
	if sortByTag {
		return l.findTags(h, key, directPos)
	}
	s := l.kvs[:l.sorted]
	i := sort.Search(len(s), func(j int) bool { return bytes.Compare(s[j].key(), key) >= 0 })
	if i < len(s) && bytes.Equal(s[i].key(), key) {
		return s[i]
	}
	for _, it := range l.kvs[l.sorted:] {
		if bytes.Equal(it.key(), key) {
			return it
		}
	}
	return nil
}

// insert adds a new item; the caller holds mu and has verified the key is
// absent. The common case appends to the inline tail — three atomic
// stores, no allocation — and the tail is folded into a fresh base block
// on the insert that would exceed tagTailMax.
func (l *leafNode) insert(it *kv) {
	l.beginMutate()
	// Keep the sorted prefix maximal for the common ascending-insert case.
	if l.sorted == len(l.kvs) &&
		(l.sorted == 0 || bytes.Compare(l.kvs[l.sorted-1].key(), it.key()) < 0) {
		l.sorted++
	}
	l.kvs = append(l.kvs, it)
	tl := int(l.tailLen.Load())
	if tl < tagTailMax {
		pos := int32(l.base.Load().keyPos(it.key()))
		// Keep the inline tail (pos, key)-sorted: find the insertion
		// slot, shift the greater suffix up one, store the new item. The
		// shift's transient duplicates are inside this bracket, so
		// optimistic readers discard them; scans then merge the tail by
		// position straight from the slots, sorting nothing at read time.
		s := tl
		for s > 0 {
			p := l.tailPos[s-1].Load()
			if p < pos || (p == pos && bytes.Compare(l.tailItem[s-1].Load().key(), it.key()) < 0) {
				break
			}
			s--
		}
		for i := tl; i > s; i-- {
			l.tailHash[i].Store(l.tailHash[i-1].Load())
			l.tailItem[i].Store(l.tailItem[i-1].Load())
			l.tailPos[i].Store(l.tailPos[i-1].Load())
		}
		l.tailHash[s].Store(it.hash)
		l.tailItem[s].Store(it)
		l.tailPos[s].Store(pos)
		l.tailLen.Store(int32(tl + 1))
	} else {
		// Fold: merge the tail into a fresh base block — O(size) copies,
		// no full re-sort, no intermediate entry array. Two walks share
		// the work: the (hash, key) merge fills the lookup arrays and
		// records every element's position in the new item array; the
		// key-order walk then rebuilds the index view by merging the old
		// view with the (pos, key)-sorted tail slots through those
		// recorded positions — comparing integers, not keys. The only key
		// comparisons are the new item's own placement (its merge
		// position plus its slot among the sorted tail) and hash ties in
		// the small tail sort.
		ob := l.base.Load()
		oh, oldItems := ob.view()
		var ooBuf [tagBlockCap]int32
		oo := ob.orderInto(&ooBuf)

		// The new item joins the (pos, key)-sorted tail in a local copy.
		newPos := int32(ob.keyPos(it.key()))
		sl := tl
		for sl > 0 {
			p := l.tailPos[sl-1].Load()
			if p < newPos || (p == newPos && bytes.Compare(l.tailItem[sl-1].Load().key(), it.key()) < 0) {
				break
			}
			sl--
		}
		var titems [tagTailMax + 1]*kv
		var thash [tagTailMax + 1]uint32
		var tpos [tagTailMax + 1]int32
		for i := 0; i < sl; i++ {
			titems[i], thash[i], tpos[i] = l.tailItem[i].Load(), l.tailHash[i].Load(), l.tailPos[i].Load()
		}
		titems[sl], thash[sl], tpos[sl] = it, it.hash, newPos
		for i := sl; i < tl; i++ {
			titems[i+1], thash[i+1], tpos[i+1] = l.tailItem[i].Load(), l.tailHash[i].Load(), l.tailPos[i].Load()
		}
		m := tl + 1

		// hIdx: tail slots in (hash, key) order for the lookup-array merge.
		var hIdx [tagTailMax + 1]int32
		for i := 0; i < m; i++ {
			hIdx[i] = int32(i)
		}
		hs := hIdx[:m]
		for i := 1; i < m; i++ {
			for j := i; j > 0; j-- {
				x, y := hs[j], hs[j-1]
				if thash[x] > thash[y] || (thash[x] == thash[y] &&
					bytes.Compare(titems[x].key(), titems[y].key()) >= 0) {
					break
				}
				hs[j], hs[j-1] = hs[j-1], hs[j]
			}
		}

		var stage [tagBlockCap]int32
		nb, nh, ni, no := newTagBlock(len(oh)+m, &stage)
		var onBuf [tagBlockCap]int32
		oldToNew := onBuf[:]
		if len(oh) > tagBlockCap {
			oldToNew = make([]int32, len(oh)) // fat leaf: rare
		}
		oldToNew = oldToNew[:len(oh)]
		var tailToNew [tagTailMax + 1]int32
		o := 0
		bi := 0
		ti := 0
		for bi < len(oh) && ti < m {
			j := hs[ti]
			if oh[bi] < thash[j] || (oh[bi] == thash[j] &&
				bytes.Compare(oldItems[bi].key(), titems[j].key()) < 0) {
				nh[o], ni[o] = oh[bi], oldItems[bi]
				oldToNew[bi] = int32(o)
				bi++
			} else {
				nh[o], ni[o] = thash[j], titems[j]
				tailToNew[j] = int32(o)
				ti++
			}
			o++
		}
		for ; bi < len(oh); bi++ {
			nh[o], ni[o] = oh[bi], oldItems[bi]
			oldToNew[bi] = int32(o)
			o++
		}
		for ; ti < m; ti++ {
			j := hs[ti]
			nh[o], ni[o] = thash[j], titems[j]
			tailToNew[j] = int32(o)
			o++
		}

		// Key-order walk: old view interleaved with the pos-sorted tail.
		o = 0
		tj := 0
		for x := 0; x < len(oo); x++ {
			for tj < m && int(tpos[tj]) == x {
				no[o] = tailToNew[tj]
				o++
				tj++
			}
			no[o] = oldToNew[oo[x]]
			o++
		}
		for ; tj < m; tj++ {
			no[o] = tailToNew[tj]
			o++
		}
		l.base.Store(finishTagBlock(nb, no))
		l.tailLen.Store(0)
	}
	l.endMutate()
}

// remove deletes the item (previously returned by find); caller holds mu.
// The item's slab slot is not recycled — an optimistic reader may still
// hold a reference to it — but its value pointer is dropped so the slot
// does not pin the value buffer for the life of its slab chunk. (The key
// field stays: it is read race-free by lock-free readers precisely
// because it is never written after construction.)
func (l *leafNode) remove(it *kv) {
	l.beginMutate()
	// Inside the bracket: a reader that loaded the (nil, 0) pair observes
	// the seqlock moving and discards it; validated readers never see it.
	it.vptr.Store(nil)
	it.vlen.Store(0)
	if ti := l.tailIndexOf(it); ti >= 0 {
		// Shift the greater suffix down one, preserving the tail's
		// (pos, key) order.
		last := int(l.tailLen.Load()) - 1
		for i := ti; i < last; i++ {
			l.tailHash[i].Store(l.tailHash[i+1].Load())
			l.tailItem[i].Store(l.tailItem[i+1].Load())
			l.tailPos[i].Store(l.tailPos[i+1].Load())
		}
		l.tailLen.Store(int32(last))
	} else {
		// The item is in the base: publish a copy without it (both the
		// lookup arrays and the key-sorted index view, whose indices above
		// the removed item's array slot shift down by one).
		ob := l.base.Load()
		oh, oi := ob.view()
		var ooBuf [tagBlockCap]int32
		oo := ob.orderInto(&ooBuf)
		var stage [tagBlockCap]int32
		nb, nh, ni, no := newTagBlock(len(oh)-1, &stage)
		o := 0
		ri := len(oi) // removed item's index in the old item array
		for i, m := range oi {
			if m != it {
				nh[o], ni[o] = oh[i], m
				o++
			} else {
				ri = i
			}
		}
		j := 0
		rp := len(oo) // removed item's slot in the old key-sorted view
		for x, ix := range oo {
			if int(ix) == ri {
				rp = x
				continue
			}
			if int(ix) > ri {
				ix--
			}
			no[j] = ix
			j++
		}
		l.base.Store(finishTagBlock(nb, no))
		// Tail merge positions above the removed key slot shift down; a
		// monotone adjustment, so the slots' (pos, key) order survives.
		for i := 0; i < int(l.tailLen.Load()); i++ {
			if p := l.tailPos[i].Load(); p > int32(rp) {
				l.tailPos[i].Store(p - 1)
			}
		}
	}
	for i, k := range l.kvs {
		if k != it {
			continue
		}
		if i < l.sorted {
			copy(l.kvs[i:], l.kvs[i+1:])
			l.kvs = l.kvs[:len(l.kvs)-1]
			l.sorted--
		} else {
			l.kvs[i] = l.kvs[len(l.kvs)-1]
			l.kvs = l.kvs[:len(l.kvs)-1]
		}
		break
	}
	l.endMutate()
}

// tailIndexOf returns it's slot in the inline tail, or -1.
func (l *leafNode) tailIndexOf(it *kv) int {
	tl := int(l.tailLen.Load())
	for i := 0; i < tl; i++ {
		if l.tailItem[i].Load() == it {
			return i
		}
	}
	return -1
}

// incSortScratch recycles the merge buffer of incSort across calls; the
// buffer never escapes the lock-holding caller, so pooling it makes the
// scan/split sort path allocation-free for leaves within LeafCap.
var incSortScratch = sync.Pool{
	New: func() any {
		b := make([]*kv, 0, 128)
		return &b
	},
}

// incSort makes kvs fully key-sorted: sort the unsorted tail, then merge it
// with the sorted prefix (Algorithm 3's incSort). The published tag array
// is untouched — kvs order is invisible to lock-free readers. Caller
// holds mu (write).
func (l *leafNode) incSort() {
	if l.sorted == len(l.kvs) {
		return
	}
	tail := l.kvs[l.sorted:]
	slices.SortFunc(tail, func(x, y *kv) int { return bytes.Compare(x.key(), y.key()) })
	if l.sorted == 0 {
		l.sorted = len(l.kvs)
		return
	}
	bufp := incSortScratch.Get().(*[]*kv)
	merged := (*bufp)[:0]
	a, b := l.kvs[:l.sorted], tail
	for len(a) > 0 && len(b) > 0 {
		if bytes.Compare(a[0].key(), b[0].key()) <= 0 {
			merged = append(merged, a[0])
			a = a[1:]
		} else {
			merged = append(merged, b[0])
			b = b[1:]
		}
	}
	merged = append(merged, a...)
	merged = append(merged, b...)
	copy(l.kvs, merged)
	l.sorted = len(l.kvs)
	*bufp = merged[:0]
	incSortScratch.Put(bufp)
}

// rebuildTags builds and publishes a fresh fully-sorted base block from
// kvs (used after splits and bulk loads). The previous block is left
// intact for readers still holding it. Caller holds mu.
func (l *leafNode) rebuildTags() {
	nb := make([]tagEnt, len(l.kvs))
	for i, it := range l.kvs {
		nb[i] = tagEnt{hash: it.hash, it: it}
	}
	sortTagEnts(nb)
	l.setTags(nb)
}

// firstAtLeast returns the index of the first sorted item with key >= k.
// Requires incSort to have run (sorted == len(kvs)).
func (l *leafNode) firstAtLeast(k []byte) int {
	return sort.Search(len(l.kvs), func(i int) bool {
		return bytes.Compare(l.kvs[i].key(), k) >= 0
	})
}

// firstGreater returns the index of the first sorted item with key > k.
func (l *leafNode) firstGreater(k []byte) int {
	return sort.Search(len(l.kvs), func(i int) bool {
		return bytes.Compare(l.kvs[i].key(), k) > 0
	})
}
