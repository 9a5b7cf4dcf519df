// Command perfbench is the repository's end-to-end benchmark: a durable
// two-shard store served by netkv on loopback and driven by netkv clients in
// a closed loop, all in one process. Every answer is checked.
//
//	perfbench --workload read-mostly --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// measures an untraced and a traced window of half the length each and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The command
// exits non-zero if any operation failed or any answer was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/repro/wormhole/internal/metrics"
	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

const (
	shards       = 2
	setupRepeats = 3 // set-ups per end-to-end run; setup_s is their median
	storeDir     = "store"
	warmup       = time.Second
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if *printManifest {
		out, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		return
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// bench is one run's state: the generated inputs, the connections'
// drivers and the served store.
type bench struct {
	w       *workload
	seed    uint64
	keys    [][]byte // preload keys, generation order
	vals    [][]byte // preload values
	sorted  [][]byte // preload keys ascending (scan checks)
	fresh   [][]byte // insert keys, disjoint from keys
	sample  [][]byte // partitioner sample
	drivers []*driver
}

// served is one set-up store and the server in front of it.
type served struct {
	st    *shard.Store
	srv   *netkv.Server
	fs    *memFS
	probe *probe // arms the traced wrappers; nil in untraced runs
	smx   *netkv.ServerMetrics
	wmx   *wal.Metrics
}

func (s *served) close() error {
	s.srv.Close()
	err := s.st.Close()
	if cerr := s.fs.Close(); err == nil {
		err = cerr
	}
	return err
}

// setup opens a fresh durable store, preloads it and starts serving it:
// the interval setup_s measures. It arms the server and WAL metrics on a
// registry, as whkv serve does.
func (b *bench) setup(traced bool) (*served, time.Duration, error) {
	fs := newMemFS()
	sv := &served{fs: fs}
	opts := wal.Options{Sync: b.w.sync}
	if traced {
		sv.probe = &probe{}
		opts.FS = &tracedFS{FS: fs, p: sv.probe}
	} else {
		opts.FS = fs
	}
	reg := metrics.NewRegistry()
	sv.smx = netkv.NewServerMetrics(reg, metrics.NewSlowLog(128, 100*time.Millisecond))
	sv.wmx = wal.NewMetrics(reg)
	opts.Metrics = sv.wmx
	metrics.RegisterRuntime(reg, "perfbench")

	t0 := time.Now()
	st, err := shard.Open(shard.Options{Shards: shards, Sample: b.sample, Dir: storeDir, Durability: opts})
	if err != nil {
		fs.Close()
		return nil, 0, fmt.Errorf("open store: %w", err)
	}
	st.SetBatchMetrics(shard.NewBatchMetrics(reg))
	const chunk = 4096
	for i := 0; i < len(b.keys); i += chunk {
		j := min(i+chunk, len(b.keys))
		st.SetBatch(b.keys[i:j], b.vals[i:j])
	}
	srv, err := netkv.ServeOpts("127.0.0.1:0", st, netkv.ServerOptions{Metrics: sv.smx})
	if err != nil {
		st.Close()
		fs.Close()
		return nil, 0, fmt.Errorf("serve: %w", err)
	}
	d := time.Since(t0)
	sv.st, sv.srv = st, srv
	if got := st.Count(); got != int64(len(b.keys)) {
		sv.close()
		return nil, 0, fmt.Errorf("preload left %d keys, want %d", got, len(b.keys))
	}
	return sv, d, nil
}

func run(w *workload, seed uint64, window time.Duration, traced bool) (*result, error) {
	b := &bench{w: w, seed: seed}
	b.generate(window)
	hi := hostInfo(seed)
	hi.Workload, hi.Trace, hi.WindowSeconds = w.name, traced, int(window/time.Second)
	hb, _ := json.Marshal(hi)
	fmt.Println("host", string(hb))

	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var setups []float64
	var sv *served
	for i := 0; i < repeats; i++ {
		if sv != nil {
			if err := sv.close(); err != nil {
				return nil, err
			}
			sv = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		s, d, err := b.setup(traced)
		if err != nil {
			return nil, err
		}
		sv = s
		setups = append(setups, d.Seconds())
	}
	res := &result{}
	defs := endToEnd
	if traced {
		var err error
		if res.Metrics, err = b.tracedRun(sv, window); err != nil {
			return nil, err
		}
		defs = perLayer
	} else {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		walBytes0 := sv.wmx.AppendedBytes.Value()
		res.Metrics = b.endToEnd(b.window(sv.srv.Addr(), warmup, window, nil))
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["heap_bytes_per_key"] = metric{float64(ms.HeapAlloc) / float64(len(b.keys)), "B/key"}
		var user int64
		for _, d := range b.drivers {
			user += d.userBytes
		}
		res.Metrics["wal_bytes_per_user_byte"] = metric{
			float64(sv.wmx.AppendedBytes.Value()-walBytes0) / float64(user), "B/B"}
	}
	if err := checkMetrics(res.Metrics, defs); err != nil {
		return nil, err
	}
	for _, d := range b.drivers {
		res.Attempted += d.attempted
		res.Failed += d.failed
		if d.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: connection %d: %v\n", d.writer, d.err)
		}
	}
	res.Correct = res.Failed == 0
	if w.recoveryCheck {
		if err := b.checkRecovery(sv); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: recovery check:", err)
			res.Correct = false
		}
	} else if err := sv.close(); err != nil {
		return nil, err
	}
	fmt.Printf("%-30s %14g (%d of %d ops)\n", "failed_op_ratio",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, d := range defs {
		fmt.Printf("%-30s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	return res, nil
}

// windowResult is what one measured window observed.
type windowResult struct {
	wall    time.Duration
	cpu     time.Duration
	ops     int64
	writes  int64
	batches int64
	rtt     []int64 // sorted round trips of the latency connections' batches (ns)
	wrtt    []int64 // sorted round trips of batches that carried a write (ns)
	rttSum  int64   // summed round trips of every batch (ns)
	rt0     runtimeStats
	rt1     runtimeStats
}

// window drives every connection in a closed loop: warm up, then measure
// for dur. Batches that start inside the window count. A non-nil arm is
// called with true when the measured part starts and false when it ends.
func (b *bench) window(addr string, warm, dur time.Duration, arm func(bool)) windowResult {
	t0 := time.Now().Add(warm)
	t1 := t0.Add(dur)
	var wg sync.WaitGroup
	for _, d := range b.drivers {
		d.win = winStats{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.run(addr, t0, t1)
		}()
	}
	time.Sleep(time.Until(t0))
	if arm != nil {
		arm(true)
	}
	cpu0 := cpuTime()
	rt0 := readRuntime()
	wg.Wait()
	cpu1 := cpuTime()
	rt1 := readRuntime()
	if arm != nil {
		arm(false)
	}
	var r windowResult
	var end time.Time
	for _, d := range b.drivers {
		r.ops += d.win.ops
		r.writes += d.win.writes
		r.batches += d.win.batches
		r.rttSum += d.win.rttSum
		if d.latency {
			r.rtt = append(r.rtt, d.win.rtt...)
		}
		r.wrtt = append(r.wrtt, d.win.wrtt...)
		if d.win.end.After(end) {
			end = d.win.end
		}
	}
	r.wall = end.Sub(t0)
	r.cpu = cpu1 - cpu0
	r.rt0, r.rt1 = rt0, rt1
	slices.Sort(r.rtt)
	slices.Sort(r.wrtt)
	return r
}

// endToEnd derives the end-to-end metrics of an untraced window. Batch
// latency is gated at p95: on a 2-vCPU shared host the p99 moves with
// millisecond scheduling stalls from outside the process, so it is printed
// with its sample count but not gated, as are the write batches' quantiles.
func (b *bench) endToEnd(r windowResult) map[string]metric {
	us := func(ns float64) float64 { return ns / 1e3 }
	fmt.Printf("batch round trips (us): n=%d p50=%.1f p95=%.1f p99=%.1f p99.9=%.1f\n",
		len(r.rtt), us(quantile(r.rtt, 0.50)), us(quantile(r.rtt, 0.95)),
		us(quantile(r.rtt, 0.99)), us(quantile(r.rtt, 0.999)))
	fmt.Printf("write-batch round trips (us): n=%d p50=%.1f p95=%.1f p99=%.1f p99.9=%.1f\n",
		len(r.wrtt), us(quantile(r.wrtt, 0.50)), us(quantile(r.wrtt, 0.95)),
		us(quantile(r.wrtt, 0.99)), us(quantile(r.wrtt, 0.999)))
	return map[string]metric{
		"ops_s":         {float64(r.ops) / r.wall.Seconds(), "1/s"},
		"batch_p50_us":  {us(quantile(r.rtt, 0.50)), "us"},
		"batch_p95_us":  {us(quantile(r.rtt, 0.95)), "us"},
		"writer_ops_s":  {float64(r.writes) / r.wall.Seconds(), "1/s"},
		"cpu_us_per_op": {us(float64(r.cpu)) / float64(r.ops), "us/op"},
	}
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
