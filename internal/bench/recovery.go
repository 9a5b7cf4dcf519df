package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

// Recovery measures restart from a v2 segmented snapshot on the
// common-prefix Url keyset, where prefix compression has something to
// compress: one "v2 seg=... w=N" row per segment-size and decode-worker
// point.
//
// Every variant builds the same store — 90% of the keyset in the
// snapshot, the last 10% as a WAL tail, the state a periodically
// snapshotting server restarts with — then closes and times the reopen.
// Rows report recovered pairs per second (MOPS), seconds per million
// keys, and the snapshot's on-disk bytes (Result.Bytes), so one run
// answers both trajectory questions: how fast recovery is, and how large
// its files are.
//
// Config.SegBytes adds a segment size to the default {256KiB, 1MiB}
// ladder; Config.DecodeWorkers adds a worker count to {1, 2, 8}.
// Stores persist under Config.Dir (default: a temp directory, removed
// afterwards).
func Recovery(c *Config) {
	keys := c.Keyset("Url")
	root := c.Dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "whbench-recovery-*")
		if err != nil {
			c.printf("recovery: %v\n", err)
			return
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	segSizes := []int{256 << 10, 1 << 20}
	if n := c.SegBytes; n > 0 && n != segSizes[0] && n != segSizes[1] {
		segSizes = append(segSizes, n)
		sort.Ints(segSizes)
	}
	workerCounts := []int{1, 2, 8}
	if n := c.DecodeWorkers; n > 0 && n != 1 && n != 2 && n != 8 {
		workerCounts = append(workerCounts, n)
		sort.Ints(workerCounts)
	}

	c.printf("recovery: keyset Url, %d keys, 90%% snapshot + 10%% WAL tail\n", len(keys))
	c.printf("%-22s %10s %12s %12s %10s\n",
		"format", "MOPS", "s/Mkeys", "snap bytes", "segments")
	cut := len(keys) * 9 / 10
	for _, sb := range segSizes {
		label := fmt.Sprintf("v2 seg=%dKiB", sb>>10)
		dir := filepath.Join(root, sanitize(label))
		st, err := shard.Open(shard.Options{Dir: dir, Sample: keys,
			Durability: wal.Options{Sync: wal.SyncNone, SegmentBytes: sb}})
		if err != nil {
			c.printf("recovery: open %s: %v\n", dir, err)
			return
		}
		loadStriped(st, keys[:cut], c.Threads)
		if err := st.Snapshot(); err != nil {
			c.printf("recovery: snapshot: %v\n", err)
			st.Close()
			return
		}
		loadStriped(st, keys[cut:], c.Threads)
		if err := st.Close(); err != nil {
			c.printf("recovery: close: %v\n", err)
			return
		}
		snapBytes := snapshotBytes(dir)

		for _, w := range workerCounts {
			start := time.Now()
			st2, err := shard.Open(shard.Options{
				Dir:        dir,
				Durability: wal.Options{DecodeWorkers: w},
			})
			el := time.Since(start)
			if err != nil {
				c.printf("recovery: reopen %s: %v\n", dir, err)
				return
			}
			if int(st2.Count()) != len(keys) {
				c.printf("recovery: %s lost keys: %d != %d\n", label, st2.Count(), len(keys))
				st2.Close()
				return
			}
			segs := st2.RecoveredSegments()
			st2.Close()
			mops := float64(len(keys)) / el.Seconds() / 1e6
			op := fmt.Sprintf("%s w=%d", label, w)
			c.printf("%-22s %10.2f %12.2f %12d %10d\n",
				op, mops, el.Seconds()*1e6/float64(len(keys)), snapBytes, segs)
			c.record(Result{
				Exp: "recovery", Op: op, Index: "wormhole-sharded", Threads: w,
				Keys: len(keys), MOPS: mops, NsPerOp: 1e3 / mops, Bytes: snapBytes,
			})
		}
		os.RemoveAll(dir)
	}
}

// snapshotBytes sums the on-disk size of every snapshot artifact under
// dir — the .snap footers and the .seg segment files — across all shard
// subdirectories.
func snapshotBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		switch filepath.Ext(info.Name()) {
		case ".snap", ".seg":
			n += info.Size()
		}
		return nil
	})
	return n
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ' || c == '=':
			out = append(out, '-')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
