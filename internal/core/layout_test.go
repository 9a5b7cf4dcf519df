package core

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"github.com/repro/wormhole/internal/keyset"
)

// The compact leaf layout: 32-byte items in chunks of at most 16 slots,
// and a base tag block that fits the 2048-byte size class with its entry
// count inside. These tests pin the sizes, the heap an index costs per
// key, and Footprint's agreement with that heap.

func TestLayoutSizes(t *testing.T) {
	if got := unsafe.Sizeof(kv{}); got != 32 {
		t.Errorf("sizeof(kv) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(tagBlock{}); got > tagBlockAlloc {
		t.Errorf("sizeof(tagBlock) = %d, want <= %d", got, tagBlockAlloc)
	}
	if want := DefaultOptions().LeafCap + tagTailMax; tagBlockCap < want {
		t.Errorf("tagBlockCap = %d, want >= LeafCap + tagTailMax = %d", tagBlockCap, want)
	}
}

// heapPerKeyKeys is the Az1 scale of the heap tests: Figure 16's default.
const heapPerKeyKeys = 200_000

// buildAz1 loads Az1 keys (value = key, so no value bytes are allocated)
// into a fresh concurrent index and returns it with the HeapAlloc delta
// the build left after a full collection.
func buildAz1(t *testing.T) (*Wormhole, [][]byte, int64) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector changes heap accounting")
	}
	if testing.Short() {
		t.Skip("builds a 200k-key index")
	}
	keys := keyset.GenAz1(heapPerKeyKeys, 1)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	w := New(DefaultOptions())
	for _, k := range keys {
		w.Set(k, k)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return w, keys, int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
}

// TestIndexHeapPerKey bounds what the index structure costs per key, key
// and value bytes excluded (they are the caller's). The layout measures
// ~83 B/key; undoing any one of the 32-byte kv (~+19), the 16-slot slab
// chunk (~+7) or the 2 KiB tag block (~+7) crosses the bound.
func TestIndexHeapPerKey(t *testing.T) {
	w, keys, delta := buildAz1(t)
	perKey := float64(delta) / float64(len(keys))
	t.Logf("heap delta %.1f MB, %.1f B/key (%d leaves)", float64(delta)/1e6, perKey, w.Stats().Leaves)
	const bound = 87
	if perKey > bound {
		t.Fatalf("index costs %.1f B/key, want <= %d", perKey, bound)
	}
	runtime.KeepAlive(w)
}

// TestFootprintMatchesHeap checks Footprint's structural part — all of it
// but the key and value bytes — against the measured heap delta of the
// same build: slab chunks and tag blocks are charged as allocated, so the
// two agree to within a few percent.
func TestFootprintMatchesHeap(t *testing.T) {
	w, keys, delta := buildAz1(t)
	var kvBytes int64
	for _, k := range keys {
		kvBytes += 2 * int64(len(k)) // key, and the value that aliases it
	}
	structural := w.Footprint() - kvBytes
	ratio := float64(structural) / float64(delta)
	t.Logf("footprint structural %.2f MB, heap delta %.2f MB (ratio %.3f)",
		float64(structural)/1e6, float64(delta)/1e6, ratio)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("Footprint structural part %d is %.1f%% of the heap delta %d, want within 5%%",
			structural, 100*ratio, delta)
	}
	runtime.KeepAlive(w)
}

// TestBlockCountInvariants runs the invariant checker — which verifies
// each base block's in-header count against its arrays — after inserts,
// splits, deletes and merges, in both the inline and the big block form.
func TestBlockCountInvariants(t *testing.T) {
	for _, leafCap := range []int{128, 512} { // 512: leaves past tagBlockCap use the big form
		t.Run(fmt.Sprintf("leafcap=%d", leafCap), func(t *testing.T) {
			o := DefaultOptions()
			o.LeafCap = leafCap
			w := New(o)
			check := func(phase string) {
				t.Helper()
				if err := w.CheckInvariants(); err != nil {
					t.Fatalf("after %s: %v", phase, err)
				}
			}
			const n = 5000
			key := func(i int) []byte { return []byte(fmt.Sprintf("blk-%05d", (i*7919)%n)) }
			for i := 0; i < n; i++ {
				w.Set(key(i), []byte{byte(i)})
				if i%997 == 0 {
					check("inserts")
				}
			}
			check("inserts and splits")
			if leafCap > tagBlockCap {
				big := 0
				for l := w.head; l != nil; l = l.next.Load() {
					if l.base.Load().big != nil {
						big++
					}
				}
				if big == 0 {
					t.Fatal("no leaf reached the big block form")
				}
			}
			grown := w.Stats().Leaves
			if grown < n/leafCap {
				t.Fatalf("%d leaves after %d inserts: splits did not run", grown, n)
			}
			for i := 0; i < n; i++ {
				if i%10 != 0 {
					w.Del(key(i))
				}
				if i%991 == 0 {
					check("deletes")
				}
			}
			check("deletes and merges")
			if shrunk := w.Stats().Leaves; shrunk >= grown {
				t.Fatalf("%d leaves after deleting 90%% of %d: merges did not run", shrunk, grown)
			}
		})
	}
}

// TestCheckBlockCatchesCountMismatch makes sure the checker really reads
// the count: a block whose count disagrees with its arrays is rejected.
func TestCheckBlockCatchesCountMismatch(t *testing.T) {
	w := New(DefaultOptions())
	for i := 0; i < 40; i++ {
		w.Set([]byte(fmt.Sprintf("k%03d", i)), nil)
	}
	l := w.head
	l.mu.Lock()
	l.rebuildTags()
	good := l.base.Load()
	bad := *good
	bad.n--
	l.base.Store(&bad)
	l.mu.Unlock()
	if err := w.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a block whose count is one short")
	}
	l.base.Store(good)
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
