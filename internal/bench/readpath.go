package bench

import (
	"runtime"
	"time"

	"github.com/repro/wormhole/internal/index"
)

// ReadPath isolates the point-read path of the concurrent Wormhole — the
// §2.5 workload the seqlock/QSBR-pinning work targets. It measures, on
// Az1:
//
//   - "get": plain Get calls, one QSBR reader section per operation;
//   - "get-pinned": Get through a per-worker pinned read handle
//     (index.ReadPinner), the amortized path a server connection uses —
//     reported only when the index supports it;
//   - "set": single-threaded fresh-index insertion, to track the write
//     path's trajectory alongside the read path.
//
// The goroutine ladder always includes 8 even on smaller machines so the
// BENCH_*.json trajectory stays comparable across hosts.
func ReadPath(c *Config) {
	keys := c.Keyset("Az1")
	ix := BuildIndex("wormhole", keys)
	points := readPathThreads(c.Threads)

	// Settle the load phase's garbage so every row measures steady state
	// instead of racing the collector over construction debris.
	runtime.GC()
	getAllocs := allocsPerOp(2000, func() { ix.Get(keys[0]) })
	c.printf("read path: keyset Az1, %d keys (MOPS)\n", len(keys))
	c.printf("%-12s", "op/threads")
	for _, t := range points {
		c.printf("%8d", t)
	}
	c.printf("%14s\n", "allocs/op")

	row := func(op string, pts []int, allocs float64, sample func(), cell func(threads int) float64) {
		// Latency percentiles come from one single-threaded sampling pass
		// per operation (see SampleLatency); the throughput cells stay
		// clock-free. Only the threads=1 cell carries them: that is the
		// configuration they were sampled in.
		var p50, p99, p999 float64
		if sample != nil {
			p50, p99, p999 = SampleLatency(c.Duration/4, sample)
		}
		c.printf("%-12s", op)
		for _, t := range points {
			in := false
			for _, p := range pts {
				in = in || p == t
			}
			if !in {
				c.printf("%8s", "-")
				continue
			}
			// Bracket the cell with wall and process-CPU clocks: on a
			// shared host, steal time deflates wall-clock MOPS run to run,
			// while ops per CPU-second stays comparable — the trajectory
			// metric of record on noisy machines.
			w0, u0 := time.Now(), processCPUTime()
			mops := cell(t)
			wall, cpu := time.Since(w0), processCPUTime()-u0
			mopsCPU := mops
			if cpu > 0 && wall > 0 {
				mopsCPU = mops * wall.Seconds() / cpu.Seconds()
			}
			c.printf("%8.2f", mops)
			res := Result{
				Exp: "readpath", Op: op, Index: "wormhole", Threads: t,
				Keys: len(keys), MOPS: mops, MOPSCPU: mopsCPU,
				NsPerOp: 1e3 / mops, AllocsPerOp: allocs,
			}
			if t == 1 {
				res.P50Ns, res.P99Ns, res.P999Ns = p50, p99, p999
			}
			c.record(res)
		}
		c.printf("%14.2f\n", allocs)
		if p50 > 0 {
			c.printf("%-12s p50 %.0fns  p99 %.0fns  p999 %.0fns (sampled 1 thread)\n",
				"  "+op+" lat", p50, p99, p999)
		}
	}

	n := len(keys)
	getRng := NewRng(uint64(c.Seed))
	row("get", points, getAllocs, func() { ix.Get(keys[getRng.Intn(n)]) }, func(t int) float64 {
		return LookupThroughput(ix, keys, t, c.Duration, c.Seed)
	})
	if rp, ok := ix.(index.ReadPinner); ok {
		h := rp.NewReadHandle()
		pinnedAllocs := allocsPerOp(2000, func() { h.Get(keys[0]) })
		pinRng := NewRng(uint64(c.Seed) + 1)
		row("get-pinned", points, pinnedAllocs, func() { h.Get(keys[pinRng.Intn(n)]) }, func(t int) float64 {
			return PinnedLookupThroughput(rp, keys, t, c.Duration, c.Seed)
		})
		h.Close()
	}

	setAllocs := func() float64 {
		info, _ := index.Lookup("wormhole")
		fresh := info.New()
		i := 0
		return allocsPerOp(2000, func() {
			fresh.Set(keys[i%len(keys)], keys[i%len(keys)])
			i++
		})
	}()
	setSample := func() func() {
		info, _ := index.Lookup("wormhole")
		fresh := info.New()
		i := 0
		return func() {
			fresh.Set(keys[i%n], keys[i%n])
			i++
		}
	}()
	row("set", []int{1}, setAllocs, setSample, func(int) float64 {
		return InsertThroughput("wormhole", keys)
	})
}

// PinnedLookupThroughput is LookupThroughput through per-worker pinned
// read handles: each worker claims one handle up front and reuses it for
// every lookup, the amortization a server grants each connection.
func PinnedLookupThroughput(rp index.ReadPinner, keys [][]byte, threads int, dur time.Duration, seed int64) float64 {
	n := len(keys)
	handles := make([]index.ReadHandle, threads)
	for i := range handles {
		handles[i] = rp.NewReadHandle()
	}
	defer func() {
		for _, h := range handles {
			h.Close()
		}
	}()
	return Throughput(threads, dur, seed, func(tid int, r *Rng) {
		if _, ok := handles[tid].Get(keys[r.Intn(n)]); !ok {
			panic("bench: loaded key missing")
		}
	})
}

// allocsPerOp reports the average heap allocations per call of f,
// measured on a single goroutine (testing.AllocsPerRun without importing
// package testing into the binary).
func allocsPerOp(n int, f func()) float64 {
	var m0, m1 runtime.MemStats
	f() // warm up: lazy growth, pools
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// readPathThreads returns the doubling ladder 1,2,4,... that always
// reaches at least 8 and includes the configured ceiling.
func readPathThreads(limit int) []int {
	if limit < 8 {
		limit = 8
	}
	return threadPoints(limit)
}
