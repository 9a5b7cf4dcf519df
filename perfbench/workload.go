package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

// workload is one named traffic mix. BENCHMARK.json repeats each why.
type workload struct {
	name, why string
	// manual workloads run by name but are left out of BENCHMARK.json,
	// whose workloads must repeat within their bounds on a shared host.
	manual        bool
	preload       int
	sync          wal.SyncPolicy
	recoveryCheck bool // reopen the store after the run and check every key
	fresh         bool // needs an insert keyset disjoint from the preload
	conns         func(b *bench) []*driver
}

var workloads = []*workload{
	{
		name: "read-mostly",
		why: "1M keys far beyond L3, uniform batches of 64 at 95% Get: GetBatch, the netkv " +
			"executor and the index read path do the work; the WAL is nearly idle",
		preload: 1_000_000, sync: wal.SyncInterval,
		conns: func(b *bench) []*driver {
			return []*driver{b.mixed(0, 64, 0.95, false), b.mixed(1, 64, 0.95, false)}
		},
	},
	{
		name: "write-durable",
		why: "100k L3-resident keys, zipfian batches of 16 at 50% overwrite under SyncAlways: " +
			"WAL append, group commit and fsync gate every ack; reads stay cache-resident",
		preload: 100_000, sync: wal.SyncAlways, recoveryCheck: true,
		conns: func(b *bench) []*driver {
			return []*driver{b.mixed(0, 16, 0.5, true), b.mixed(1, 16, 0.5, true)}
		},
	},
	{
		name: "scan-churn",
		why: "1M keys; one connection scans (limit 1..100) while another inserts fresh keys: " +
			"the lock-free scan path under splits, the sequential executor, large responses",
		// Its figures spread 15-23% between runs on a 2-vCPU shared host
		// (scans and GC marking stream memory), more than a bound allows.
		manual:  true,
		preload: 1_000_000, sync: wal.SyncInterval, fresh: true,
		conns: func(b *bench) []*driver {
			return []*driver{b.scanner(0), b.inserter(1)}
		},
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// freshPerSecond bounds the insert rate the fresh keyset is sized for; a
// run that inserts faster fails loudly rather than reusing keys.
const freshPerSecond = 90_000

// generate builds every input of the run from the seed. Its time is not
// part of setup_s.
func (b *bench) generate(window time.Duration) {
	b.keys = preloadKeys(b.w.preload, b.seed)
	buf := make([]byte, len(b.keys)*ValueLen)
	b.vals = make([][]byte, len(b.keys))
	for i, k := range b.keys {
		b.vals[i] = buf[i*ValueLen : (i+1)*ValueLen : (i+1)*ValueLen]
		fillValue(b.vals[i], b.seed, k, 0, uint64(i))
	}
	for i := 0; i < len(b.keys); i += 64 {
		b.sample = append(b.sample, b.keys[i])
	}
	if b.w.fresh {
		b.sorted = sortedCopy(b.keys)
		secs := (warmup + window + time.Second).Seconds()
		b.fresh = freshKeys(int(freshPerSecond*secs), b.seed, b.sorted)
	}
	b.drivers = b.w.conns(b)
}

// role is what a connection sends.
type role int

const (
	mixedRole  role = iota // Gets and overwrites of preload keys
	scanRole               // ascending scans
	insertRole             // inserts of fresh keys
)

// pending is one queued operation awaiting its answer.
type pending struct {
	key   int    // index into keys (mixed), sorted (scan) or fresh (insert)
	seq   uint64 // write sequence number; 0 for a Get
	limit int    // scan limit
}

// winStats is what one connection observed inside a measured window.
type winStats struct {
	ops, writes, batches int64
	rttSum               int64
	rtt, wrtt            []int64
	end                  time.Time
}

// driver is one client connection's request generator and answer checker.
// Its state survives windows, so sequence numbers and the insert cursor
// keep advancing across them.
type driver struct {
	b        *bench
	role     role
	writer   uint32 // value writer id: connection index + 1
	r        *rand.Rand
	choose   chooser
	batch    int
	readFrac float64
	latency  bool     // counts toward batch_p50_us / batch_p99_us
	lastSeq  []uint64 // per preload key: last acknowledged write (0: none); nil when untracked
	seq      uint64
	cursor   int // next fresh key
	val      [ValueLen]byte
	pend     []pending

	attempted, failed int64
	userBytes         int64 // key+value bytes of acknowledged writes
	err               error // first failure

	win winStats
}

func (b *bench) newDriver(i int, ro role, batch int) *driver {
	return &driver{b: b, role: ro, writer: uint32(i + 1), r: newRand(b.seed, uint64(i)+1),
		batch: batch, latency: true}
}

// mixed returns a connection sending batches of Gets and overwrites of
// preload keys, chosen scrambled-zipfian (theta 0.99) or uniformly.
func (b *bench) mixed(i, batch int, readFrac float64, zipf bool) *driver {
	d := b.newDriver(i, mixedRole, batch)
	d.readFrac = readFrac
	if zipf {
		d.choose = newZipfian(d.r, len(b.keys), 0.99)
	} else {
		d.choose = &uniform{d.r, len(b.keys)}
	}
	if b.w.recoveryCheck {
		d.lastSeq = make([]uint64, len(b.keys))
	}
	return d
}

func (b *bench) scanner(i int) *driver { return b.newDriver(i, scanRole, 16) }

func (b *bench) inserter(i int) *driver {
	d := b.newDriver(i, insertRole, 16)
	d.latency = false
	return d
}

// fail counts n failed operations, keeping the first cause.
func (d *driver) fail(n int, err error) {
	d.failed += int64(n)
	if d.err == nil {
		d.err = err
	}
}

// run drives one connection in a closed loop until t1; batches started at
// or after t0 are measured.
func (d *driver) run(addr string, t0, t1 time.Time) {
	c, err := netkv.Dial(addr)
	if err != nil {
		d.attempted += int64(d.batch)
		d.fail(d.batch, err)
		return
	}
	defer c.Close()
	for {
		start := time.Now()
		if !start.Before(t1) {
			return
		}
		writes, rtt, err := d.roundTrip(c)
		if err != nil {
			return // transport failure: counted, connection unusable
		}
		if start.Before(t0) {
			continue
		}
		w := &d.win
		w.batches++
		w.ops += int64(d.batch)
		w.writes += int64(writes)
		w.rttSum += int64(rtt)
		if d.latency {
			w.rtt = append(w.rtt, int64(rtt))
		}
		if writes > 0 {
			w.wrtt = append(w.wrtt, int64(rtt))
		}
		w.end = time.Now()
	}
}

// roundTrip sends one batch, waits for its answers and checks them.
func (d *driver) roundTrip(c *netkv.Client) (writes int, rtt time.Duration, err error) {
	b := d.b
	d.pend = d.pend[:0]
	for i := 0; i < d.batch; i++ {
		switch d.role {
		case mixedRole:
			k := d.choose.next()
			if d.r.Float64() < d.readFrac {
				c.QueueGet(b.keys[k])
				d.pend = append(d.pend, pending{key: k})
				continue
			}
			d.seq++
			fillValue(d.val[:], b.seed, b.keys[k], d.writer, d.seq)
			c.QueueSet(b.keys[k], d.val[:])
			d.pend = append(d.pend, pending{key: k, seq: d.seq})
			writes++
		case scanRole:
			k, limit := d.r.IntN(len(b.sorted)), 1+d.r.IntN(100)
			c.QueueScan(b.sorted[k], limit)
			d.pend = append(d.pend, pending{key: k, limit: limit})
		case insertRole:
			if d.cursor == len(b.fresh) {
				d.attempted += int64(d.batch)
				d.fail(d.batch, errors.New("fresh keyset exhausted: raise freshPerSecond"))
				return 0, 0, d.err
			}
			k := d.cursor
			d.cursor++
			d.seq++
			fillValue(d.val[:], b.seed, b.fresh[k], d.writer, d.seq)
			c.QueueSet(b.fresh[k], d.val[:])
			d.pend = append(d.pend, pending{key: k, seq: d.seq})
			writes++
		}
	}
	d.attempted += int64(d.batch)
	t0 := time.Now()
	rs, err := c.Flush()
	rtt = time.Since(t0)
	if err != nil {
		d.fail(d.batch, err)
		return 0, 0, err
	}
	for i, p := range d.pend {
		if err := d.check(&rs[i], p); err != nil {
			d.fail(1, err)
		}
	}
	return writes, rtt, nil
}

// check verifies one answer against what was sent.
func (d *driver) check(rp *netkv.Response, p pending) error {
	b := d.b
	if rp.Status != netkv.StatusOK {
		return fmt.Errorf("status %d for operation %+v", rp.Status, p)
	}
	switch {
	case d.role == scanRole:
		return b.checkScan(b.sorted[p.key], p.key, p.limit, rp)
	case p.seq == 0: // Get of a preload key
		return checkValue(b.seed, b.keys[p.key], rp.Val)
	}
	key := b.keys
	if d.role == insertRole {
		key = b.fresh
	}
	if d.lastSeq != nil {
		d.lastSeq[p.key] = p.seq
	}
	d.userBytes += int64(len(key[p.key]) + ValueLen)
	return nil
}

// checkScan verifies one ascending scan from start (= sorted[idx]): at most
// limit pairs, strictly ascending, none below start, every value tagged for
// its key, no preload key in the covered range skipped, and exactly limit
// pairs unless the scan ran past the last preload key (the end of the
// keyspace: inserts add keys, nothing deletes them).
func (b *bench) checkScan(start []byte, idx, limit int, rp *netkv.Response) error {
	n := len(rp.Keys)
	if n > limit || len(rp.Vals) != n {
		return fmt.Errorf("scan from %q returned %d pairs for limit %d", start, n, limit)
	}
	next := idx // next preload key the scan must reach
	var prev []byte
	for j, k := range rp.Keys {
		if j == 0 && bytes.Compare(k, start) < 0 || j > 0 && bytes.Compare(k, prev) <= 0 {
			return fmt.Errorf("scan from %q out of order at pair %d", start, j)
		}
		if err := checkValue(b.seed, k, rp.Vals[j]); err != nil {
			return fmt.Errorf("scan from %q: %w", start, err)
		}
		if next < len(b.sorted) {
			switch c := bytes.Compare(b.sorted[next], k); {
			case c < 0:
				return fmt.Errorf("scan from %q skipped preload key %q", start, b.sorted[next])
			case c == 0:
				next++
			}
		}
		prev = k
	}
	if n < limit && next < len(b.sorted) {
		return fmt.Errorf("scan from %q stopped at %d of %d pairs before the end", start, n, limit)
	}
	return nil
}

// checkRecovery closes the store and reopens it from its WAL and
// snapshots: every preload key must hold the last acknowledged write to it
// from one of the connections, or its preload value if none wrote it.
func (b *bench) checkRecovery(sv *served) error {
	sv.srv.Close()
	if err := sv.st.Close(); err != nil {
		sv.fs.Close()
		return fmt.Errorf("close: %w", err)
	}
	defer sv.fs.Close()
	opts := wal.Options{Sync: b.w.sync, FS: sv.fs}
	st, err := shard.Open(shard.Options{Dir: storeDir, Durability: opts})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer st.Close()
	if got := st.Count(); got != int64(len(b.keys)) {
		return fmt.Errorf("reopened store holds %d keys, want %d", got, len(b.keys))
	}
	rewritten := 0
	for i, k := range b.keys {
		v, ok := st.Get(k)
		if !ok {
			return fmt.Errorf("key %q lost", k)
		}
		if err := checkValue(b.seed, k, v); err != nil {
			return err
		}
		w, seq := valueWriter(v)
		if w == 0 {
			if seq != uint64(i) {
				return fmt.Errorf("key %q holds another key's preload value", k)
			}
			for _, d := range b.drivers {
				if d.lastSeq[i] != 0 {
					return fmt.Errorf("key %q holds its preload value, but connection %d wrote seq %d",
						k, d.writer, d.lastSeq[i])
				}
			}
			continue
		}
		if int(w) > len(b.drivers) || b.drivers[w-1].lastSeq[i] != seq {
			return fmt.Errorf("key %q holds write %d of connection %d, not its last acknowledged one",
				k, seq, w)
		}
		rewritten++
	}
	fmt.Printf("recovery check passed: %d keys, %d rewritten, %d snapshot pairs + %d WAL records replayed\n",
		len(b.keys), rewritten, st.RecoveredPairs(), st.RecoveredRecords())
	return nil
}
