package repl

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/vfs"
	"github.com/repro/wormhole/internal/wal"
)

// newFaultLeader builds a leader whose durability runs on an injectable
// in-memory filesystem, so tests can fill its "disk" at will.
func newFaultLeader(t *testing.T, inj *vfs.Injector, sample [][]byte) *leader {
	t.Helper()
	st, err := shard.Open(shard.Options{
		Dir:    "/ldb",
		Shards: 3,
		Sample: sample,
		Durability: wal.Options{
			Sync:    wal.SyncAlways,
			FS:      inj,
			HealMin: time.Millisecond,
			HealMax: 10 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(st)
	srv, err := netkv.ServeOpts("127.0.0.1:0", st, netkv.ServerOptions{
		Subscribe: src.ServeSubscriber,
		StatFill:  src.FillStat,
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		src.Close()
		srv.Close()
		st.Close()
	})
	return &leader{st: st, src: src, srv: srv}
}

// TestDegradedLeaderServesReadsAndHeals is the degraded-mode invariant
// end to end: an injected ENOSPC on the leader's WAL append path flips
// the owning shard into degraded read-only mode — new writes come back
// StatusDegraded over the wire, while reads and the follower's
// replication stream keep serving — and clearing the fault lets the
// self-healer restore writability with no restart. Run under -race: the
// healer, the netkv workers, and the replication senders all touch the
// same stores concurrently.
func TestDegradedLeaderServesReadsAndHeals(t *testing.T) {
	keys := testKeys(600)
	inj := vfs.NewInjector(vfs.NewMemFS())
	ld := newFaultLeader(t, inj, keys)
	cl, err := netkv.Dial(ld.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, k := range keys {
		cl.QueueSet(k, append([]byte("v-"), k...))
	}
	if _, err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	f := startFollower(t, ld, fdir)
	waitConverged(t, ld, f)

	// Fill the "disk" under every shard's WAL. The first write to a shard
	// poisons it and answers StatusErr (its commit fsync fails); every
	// write after that is refused StatusDegraded.
	inj.AddRule(vfs.Rule{Kind: vfs.KindWrite | vfs.KindSync, PathContains: "wal-", Err: syscall.ENOSPC})
	sawDegraded := false
	for i := 0; i < 50 && !sawDegraded; i++ {
		cl.QueueSet([]byte(fmt.Sprintf("poison-%03d", i)), []byte("x"))
		rs, err := cl.Flush()
		if err != nil {
			t.Fatal(err)
		}
		sawDegraded = rs[0].Status == netkv.StatusDegraded
	}
	if !sawDegraded {
		t.Fatal("no write came back StatusDegraded under a standing ENOSPC")
	}
	if !ld.st.Degraded() {
		t.Fatal("store does not report degraded")
	}

	// Reads keep serving through the same server.
	cl.QueueGet(keys[0])
	rs, err := cl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Status != netkv.StatusOK {
		t.Fatalf("read on a degraded leader: status %d", rs[0].Status)
	}
	// The degradation is visible in OpStat.
	stat, err := cl.Stat()
	if err != nil {
		t.Fatal(err)
	}
	degradedShards := 0
	for _, h := range stat.Health {
		if h.Degraded {
			degradedShards++
		}
	}
	if degradedShards == 0 {
		t.Fatalf("stat shows no degraded shard: %+v", stat.Health)
	}
	// The replication stream outlives the degradation.
	if !f.Connected() {
		t.Fatal("follower lost its stream when the leader degraded")
	}
	if _, ok := f.Store().Get(keys[0]); !ok {
		t.Fatal("follower read path died")
	}

	// Clear the fault: the self-healer must restore writability with no
	// restart — observed from the outside as writes succeeding again.
	inj.ClearRules()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl.QueueSet([]byte("after-heal"), []byte("y"))
		rs, err := cl.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].Status == netkv.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writes still refused after the fault cleared: status %d, health %+v",
				rs[0].Status, ld.st.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for ld.st.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("store still degraded after the fault cleared: %+v", ld.st.Health())
		}
		time.Sleep(time.Millisecond)
	}

	// Full convergence, including any write acked just before its fsync
	// failed (leader memory only — absent from the WAL the tail streams
	// from): restart the follower below the GC horizon so every shard
	// corrects via the snapshot path.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ld.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	f2 := startFollower(t, ld, fdir)
	defer f2.Close()
	waitConverged(t, ld, f2)
}

// TestConvergenceUnderStreamFaults keeps a lossy, slow, frame-tearing
// fault hook armed on the leader's replication stream the whole time —
// periodic connection drops, truncated frames, delayed sends — and
// demands byte-identical convergence anyway, through the follower's
// reconnect-and-resume loop and the batch contiguity check.
func TestConvergenceUnderStreamFaults(t *testing.T) {
	keys := testKeys(3000)
	ld := newLeader(t, t.TempDir(), keys)
	var n atomic.Int64
	ld.src.SetStreamFault(func(typ byte, body []byte) (FaultAction, time.Duration) {
		switch c := n.Add(1); {
		case c%97 == 0:
			return FaultDropConn, 0
		case c%61 == 0:
			return FaultTruncate, 0
		case c%13 == 0:
			return FaultDelay, time.Millisecond
		}
		return FaultPass, 0
	})
	f := startFollower(t, ld, t.TempDir())
	defer f.Close()
	for i, k := range keys {
		ld.st.Set(k, append([]byte("v-"), k...))
		if i%5 == 2 {
			ld.st.Del(keys[(i*31)%len(keys)])
		}
	}
	waitConverged(t, ld, f)
	ld.src.SetStreamFault(nil)
}
