package main

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"time"

	"github.com/repro/wormhole/internal/netkv"
)

// runtimeStats is a cumulative reading of the Go runtime's counters.
type runtimeStats struct {
	gcCycles, allocObjects, allocBytes uint64
	gcCPU, totalCPU                    float64
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return runtimeStats{
		gcCycles:     s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		allocBytes:   s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

func fl[T ~int64 | ~uint64](x T) float64 { return float64(x) }

// div is a/b, or 0 when nothing was measured.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun measures an untraced window, then serves the traced store
// wrapper over the same store and measures a traced window of the same
// length, and reports the per-layer metrics of the traced one.
func (b *bench) tracedRun(sv *served, window time.Duration) (map[string]metric, error) {
	half := window / 2
	plain := b.window(sv.srv.Addr(), warmup, half, nil)
	sv.srv.Close()
	srv, err := netkv.ServeOpts("127.0.0.1:0", &tracedStore{Store: sv.st, p: sv.probe},
		netkv.ServerOptions{Metrics: sv.smx})
	if err != nil {
		return nil, fmt.Errorf("serve traced store: %w", err)
	}
	sv.srv = srv
	tr := newTracer()
	r := b.window(srv.Addr(), warmup/2, half, func(on bool) {
		if on {
			sv.probe.Store(tr)
		} else {
			sv.probe.Store(nil)
		}
	})

	ops := float64(r.ops)
	perOp := func(x float64) float64 { return div(x, ops) }
	us := func(ns float64) float64 { return ns / 1e3 }
	get, gb, set, scan := tr.get, tr.getBatch, tr.set, tr.scan
	write, sync := tr.write, tr.sync
	setS, scanS, writeS, syncS := set.samples(), scan.samples(), write.samples(), sync.samples()
	shardNS := float64(tr.shardNS())
	rt0, rt1 := r.rt0, r.rt1
	plainOps, tracedOps := float64(plain.ops)/plain.wall.Seconds(), ops/r.wall.Seconds()
	m := map[string]metric{
		"netkv.batches":                 {fl(r.batches), "count"},
		"netkv.self_us_per_op":          {us(perOp(float64(r.rttSum) - shardNS)), "us/op"},
		"shard.get_batch.calls":         {fl(gb.calls.Load()), "count"},
		"shard.get_batch.keys_per_call": {div(fl(gb.work.Load()), fl(gb.calls.Load())), "keys/call"},
		"shard.get_batch.ns_per_key":    {div(fl(gb.ns.Load()), fl(gb.work.Load())), "ns/key"},
		"shard.get.calls":               {fl(get.calls.Load()), "count"},
		"shard.set.calls":               {fl(set.calls.Load()), "count"},
		"shard.set.p50_us":              {us(quantile(setS, 0.50)), "us"},
		"shard.set.p99_us":              {us(quantile(setS, 0.99)), "us"},
		"shard.scan.calls":              {fl(scan.calls.Load()), "count"},
		"shard.scan.pairs_per_call":     {div(fl(scan.work.Load()), fl(scan.calls.Load())), "pairs/call"},
		"shard.scan.ns_per_pair":        {div(fl(scan.ns.Load()), fl(scan.work.Load())), "ns/pair"},
		"shard.scan.p99_us":             {us(quantile(scanS, 0.99)), "us"},
		"shard.busy_us_per_op":          {us(perOp(shardNS)), "us/op"},
		"vfs.write.calls":               {fl(write.calls.Load()), "count"},
		"vfs.write.bytes_per_op":        {perOp(fl(write.work.Load())), "B/op"},
		"vfs.write.p50_us":              {us(quantile(writeS, 0.50)), "us"},
		"vfs.sync.calls":                {fl(sync.calls.Load()), "count"},
		"vfs.sync.p50_us":               {us(quantile(syncS, 0.50)), "us"},
		"vfs.sync.p99_us":               {us(quantile(syncS, 0.99)), "us"},
		"vfs.sets_per_sync":             {div(fl(r.writes), fl(sync.calls.Load())), "sets/sync"},
		"runtime.allocs_per_op":         {perOp(fl(rt1.allocObjects - rt0.allocObjects)), "allocs/op"},
		"runtime.alloc_bytes_per_op":    {perOp(fl(rt1.allocBytes - rt0.allocBytes)), "B/op"},
		"runtime.gc_cycles":             {fl(rt1.gcCycles - rt0.gcCycles), "count"},
		"runtime.gc_cpu_share":          {div(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio"},
		"trace.overhead_pct":            {100 * div(plainOps-tracedOps, plainOps), "%"},
	}
	fmt.Printf("traced window: %d ops in %.3fs (untraced %d ops in %.3fs); %d set, %d scan, %d write, %d sync samples\n",
		r.ops, r.wall.Seconds(), plain.ops, plain.wall.Seconds(), len(setS), len(scanS), len(writeS), len(syncS))
	return m, nil
}
