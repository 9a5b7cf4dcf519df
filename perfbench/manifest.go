package main

import (
	"encoding/json"
	"fmt"
)

// metricDef declares one reported metric. The tables below are the
// benchmark's contract: every run prints exactly these metrics with these
// units, and BENCHMARK.json (printed by --manifest) is generated from them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the median
}

// endToEnd are the metrics a user of the served store sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"ops_s", "1/s", "higher", 0.25},
	{"batch_p50_us", "us", "lower", 0.25},
	{"batch_p95_us", "us", "lower", 0.25},
	{"writer_ops_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us/op", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_bytes_per_key", "B/key", "lower", 0.05},
	{"wal_bytes_per_user_byte", "B/B", "lower", 0.05},
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = []metricDef{
	{"netkv.batches", "count", "higher", 0},
	{"netkv.self_us_per_op", "us/op", "lower", 0},
	{"shard.get_batch.calls", "count", "higher", 0},
	{"shard.get_batch.keys_per_call", "keys/call", "higher", 0},
	{"shard.get_batch.ns_per_key", "ns/key", "lower", 0},
	{"shard.get.calls", "count", "higher", 0},
	{"shard.set.calls", "count", "higher", 0},
	{"shard.set.p50_us", "us", "lower", 0},
	{"shard.set.p99_us", "us", "lower", 0},
	{"shard.scan.calls", "count", "higher", 0},
	{"shard.scan.pairs_per_call", "pairs/call", "higher", 0},
	{"shard.scan.ns_per_pair", "ns/pair", "lower", 0},
	{"shard.scan.p99_us", "us", "lower", 0},
	{"shard.busy_us_per_op", "us/op", "lower", 0},
	{"vfs.write.calls", "count", "lower", 0},
	{"vfs.write.bytes_per_op", "B/op", "lower", 0},
	{"vfs.write.p50_us", "us", "lower", 0},
	{"vfs.sync.calls", "count", "lower", 0},
	{"vfs.sync.p50_us", "us", "lower", 0},
	{"vfs.sync.p99_us", "us", "lower", 0},
	{"vfs.sets_per_sync", "sets/sync", "higher", 0},
	{"runtime.allocs_per_op", "allocs/op", "lower", 0},
	{"runtime.alloc_bytes_per_op", "B/op", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// checkMetrics verifies that m holds exactly the declared metrics, each in
// its declared unit.
func checkMetrics(m map[string]metric, defs []metricDef) error {
	if len(m) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(m), len(defs))
	}
	for _, d := range defs {
		got, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.Name)
		}
		if got.Unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, got.Unit, d.Unit)
		}
	}
	return nil
}

// runSeconds is the measured window the driver passes as --seconds.
const runSeconds = 15

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		if !w.manual {
			m.Workloads = append(m.Workloads, wl{w.name, w.why})
		}
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
