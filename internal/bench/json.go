package bench

// Machine-readable results. Experiments that participate in the perf
// trajectory (BENCH_*.json committed per PR) report each measured cell
// through Config.Record in addition to their human-readable tables, and
// cmd/whbench's -json flag collects the cells into one Run document.

// Result is one benchmark cell: an operation measured on one index at one
// goroutine count. MOPS is million operations per second aggregated over
// all workers; MOPSCPU is the same count normalized by process CPU time
// instead of wall time (immune to steal-time noise on shared hosts; equal
// to MOPS when CPU time is unavailable); NsPerOp is wall-clock
// nanoseconds per operation derived from MOPS (1000/MOPS); AllocsPerOp is
// measured separately single-threaded (allocation behavior does not
// depend on the worker count).
type Result struct {
	Exp         string  `json:"exp"`
	Op          string  `json:"op"`
	Index       string  `json:"index"`
	Threads     int     `json:"threads"`
	Keys        int     `json:"keys"`
	MOPS        float64 `json:"mops"`
	MOPSCPU     float64 `json:"mops_cpu,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Bytes carries an experiment-specific size figure — for recovery,
	// the snapshot's total on-disk bytes (footer + segments), so the
	// trajectory tracks file size next to speed.
	Bytes int64 `json:"bytes,omitempty"`
	// P50Ns/P99Ns/P999Ns are wall-clock latency percentiles in
	// nanoseconds from the metrics histogram, measured in a separate
	// single-threaded sampling pass (timing inside the throughput loop
	// would deflate MOPS); 0 when the experiment does not sample latency.
	P50Ns  float64 `json:"p50_ns,omitempty"`
	P99Ns  float64 `json:"p99_ns,omitempty"`
	P999Ns float64 `json:"p999_ns,omitempty"`
}

// record reports one cell to the -json collector, if any is installed.
func (c *Config) record(r Result) {
	if c.Record != nil {
		c.Record(r)
	}
}
