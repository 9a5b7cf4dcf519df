package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func tinyConfig(buf *bytes.Buffer) *Config {
	c := &Config{
		Keys: 1500, Threads: 2, Duration: 20 * time.Millisecond,
		Seed: 7, Batch: 64, Out: buf,
	}
	c.Normalize()
	return c
}

// TestAllExperimentsRun executes every registered experiment at tiny scale
// so the whole harness (including the netkv and memory paths) is covered
// by `go test`.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			c := tinyConfig(&buf)
			e.Run(c)
			out := buf.String()
			if len(out) < 40 {
				t.Fatalf("experiment %s produced almost no output: %q", e.ID, out)
			}
			if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
				t.Fatalf("experiment %s produced invalid numbers:\n%s", e.ID, out)
			}
		})
	}
}

// TestReadPathLatencyOnlyOnSampledRow: readpath samples latency on one
// thread, so only its threads=1 rows may carry percentiles.
func TestReadPathLatencyOnlyOnSampledRow(t *testing.T) {
	var buf bytes.Buffer
	c := tinyConfig(&buf)
	var rows []Result
	c.Record = func(r Result) { rows = append(rows, r) }
	ReadPath(c)
	sampled := 0
	for _, r := range rows {
		hasLat := r.P50Ns > 0 || r.P99Ns > 0 || r.P999Ns > 0
		if r.Threads != 1 && hasLat {
			t.Errorf("%s@%d carries latency sampled on one thread: %+v", r.Op, r.Threads, r)
		}
		if r.Threads == 1 && hasLat {
			sampled++
		}
	}
	if sampled == 0 {
		t.Fatalf("no threads=1 row carries latency percentiles (%d rows)", len(rows))
	}
}

func TestThroughputCounts(t *testing.T) {
	mops := Throughput(2, 50*time.Millisecond, 1, func(tid int, r *Rng) {
		_ = r.Next()
	})
	if mops <= 0 {
		t.Fatalf("Throughput = %f", mops)
	}
}

func TestRngDeterminism(t *testing.T) {
	a, b := NewRng(5), NewRng(5)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("Rng nondeterministic")
		}
	}
	if NewRng(5).Intn(10) != NewRng(5).Intn(10) {
		t.Fatal("Intn nondeterministic")
	}
	c := NewRng(6)
	for i := 0; i < 1000; i++ {
		if v := c.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestBuildIndexLoadsEverything(t *testing.T) {
	var buf bytes.Buffer
	c := tinyConfig(&buf)
	keys := c.Keyset("Az1")
	ix := BuildIndex("wormhole", keys)
	if int(ix.Count()) != len(keys) {
		t.Fatalf("Count %d want %d", ix.Count(), len(keys))
	}
	for _, k := range keys[:100] {
		if _, ok := ix.Get(k); !ok {
			t.Fatalf("key missing after build")
		}
	}
}

func TestMemoryUsagePositive(t *testing.T) {
	var buf bytes.Buffer
	c := tinyConfig(&buf)
	keys := c.Keyset("K3")
	fp, _, base := MemoryUsage("btree", keys)
	if fp <= 0 || base != int64(len(keys))*(8+8) {
		t.Fatalf("MemoryUsage fp=%d base=%d", fp, base)
	}
}

func TestKeysetScaling(t *testing.T) {
	var buf bytes.Buffer
	c := tinyConfig(&buf)
	if n := len(c.Keyset("K10")); n != 1000 {
		t.Fatalf("K10 floor = %d, want 1000", n)
	}
	c.Keys = 64000
	if n := len(c.Keyset("K8")); n != 16000 {
		t.Fatalf("K8 scale = %d, want Keys/4", n)
	}
}
