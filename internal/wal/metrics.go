package wal

import (
	"github.com/repro/wormhole/internal/metrics"
)

// Metrics is the persistence subsystem's instrument bundle, shared by
// every Log and Store it is handed to (a sharded store passes one bundle
// to all shards through Options, so the series aggregate across shards).
// A nil *Metrics is valid and records nothing — the append and fsync
// paths nil-check before reading the clock.
type Metrics struct {
	// AppendSeconds is the buffered framing latency of one record,
	// including the wait for the log's append lock (queueing behind a
	// convoy is real latency the caller pays).
	AppendSeconds *metrics.Histogram
	// FsyncSeconds is one fsync syscall; under SyncAlways group commit,
	// one observation typically covers a whole convoy of records.
	FsyncSeconds *metrics.Histogram
	// CommitWaitSeconds is the Barrier wait: how long a commit blocked
	// until a group commit covering it retired. A commit covers every
	// write a caller applied before it (a netkv batch's writes to one
	// shard, one shard's group of a SetBatch), so one observation may
	// stand for many mutations.
	CommitWaitSeconds *metrics.Histogram
	// SnapshotSeconds times a whole Snapshot (rotation, index scan,
	// snapshot write and old-generation GC).
	SnapshotSeconds *metrics.Histogram

	AppendedBytes   *metrics.Counter
	AppendedRecords *metrics.Counter
	Fsyncs          *metrics.Counter
	Rotations       *metrics.Counter
	Snapshots       *metrics.Counter
	// Failures counts durability-compromising errors as they are
	// recorded (appends that could not be logged, fsyncs that failed).
	Failures *metrics.Counter
}

// NewMetrics registers the wal_* family set on reg and returns the
// bundle to place in Options.Metrics.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		AppendSeconds: reg.Histogram("wal_append_seconds",
			"WAL record framing latency, including append-lock wait."),
		FsyncSeconds: reg.Histogram("wal_fsync_seconds",
			"WAL fsync syscall latency (one sync retires a group-commit convoy)."),
		CommitWaitSeconds: reg.Histogram("wal_commit_wait_seconds",
			"Durability-barrier wait until a covering group commit retired."),
		SnapshotSeconds: reg.Histogram("wal_snapshot_seconds",
			"Whole-snapshot latency: rotation, scan, write and GC."),
		AppendedBytes: reg.Counter("wal_appended_bytes_total",
			"Framed bytes appended to active WAL generations."),
		AppendedRecords: reg.Counter("wal_appended_records_total",
			"Records appended to active WAL generations."),
		Fsyncs: reg.Counter("wal_fsyncs_total", "WAL fsync syscalls issued."),
		Rotations: reg.Counter("wal_rotations_total",
			"WAL generation rotations (one per snapshot)."),
		Snapshots: reg.Counter("wal_snapshots_total",
			"Snapshots written and published."),
		Failures: reg.Counter("wal_failures_total",
			"Durability-compromising errors recorded (store entered degraded mode)."),
	}
}
