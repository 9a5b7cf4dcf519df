// Command whkv runs the networked key-value store of Figure 12: a server
// hosting any of the registered indexes behind the batched binary
// protocol, plus a small client for ad-hoc operations and load testing.
//
// Usage:
//
//	whkv serve -addr 127.0.0.1:7070 -index wormhole
//	whkv serve -addr 127.0.0.1:7070 -index wormhole-sharded -shards 8
//	whkv serve -index wormhole-sharded -bounds "g,n,t"   # explicit shard boundaries
//	whkv serve -dir /var/lib/whkv -sync interval        # durable store (WAL + snapshots)
//	whkv serve -dir /var/lib/whkv2 -follow host:7070    # replication follower (read-only)
//	whkv serve -read-timeout 5m -write-timeout 30s -max-inflight 64  # hardened edges
//	whkv serve -metrics-addr 127.0.0.1:9090 -slow-op 50ms  # /metrics, /healthz, pprof, slow-op ring
//	whkv set   -addr 127.0.0.1:7070 -key a -val 1
//	whkv get   -addr 127.0.0.1:7070 -key a
//	whkv scan  -addr 127.0.0.1:7070 -key a -limit 10
//	whkv flush -addr 127.0.0.1:7070                     # fsync barrier on a durable server
//	whkv stat  -addr 127.0.0.1:7070                     # role, keys, WAL, replication lag
//	whkv bench -addr 127.0.0.1:7070 -keys 100000 -batch 800 -duration 2s
//
// A durable server is automatically a replication leader: followers
// subscribe to the same address the clients use. A follower serves reads
// (and rejects writes with StatusReadOnly) while it streams the leader's
// WAL; SIGUSR1 promotes it to a writable standalone store.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/repro/wormhole/internal/adapters"
	"github.com/repro/wormhole/internal/bench"
	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/repl"
	"github.com/repro/wormhole/internal/shard"
	"github.com/repro/wormhole/internal/wal"
)

func main() {
	_ = adapters.Baselines() // link the registry
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "serve":
		serve(args)
	case "get", "set", "del", "scan", "flush":
		oneShot(cmd, args)
	case "stat":
		stat(args)
	case "bench":
		clientBench(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: whkv serve|get|set|del|scan|flush|stat|bench [flags]")
	os.Exit(2)
}

// serveConfig is serve's flags, parsed and validated once for both the
// leader and the follower mode.
type serveConfig struct {
	addr, index, follow, metricsAddr string
	// store carries -dir, -shards, -bounds and the WAL flags (-sync,
	// -seg-bytes, -decode-workers); storeOptions completes it.
	store shard.Options
	// server carries -read-timeout, -write-timeout and -max-inflight.
	server           netkv.ServerOptions
	slowOp           time.Duration
	connectTimeout   time.Duration
	autoPromote      bool
	heartbeatTimeout time.Duration
}

// parseServe parses serve's flags and rejects the combinations in which a
// flag would be silently ignored.
func parseServe(args []string) (serveConfig, error) {
	var c serveConfig
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:7070", "listen address")
	fs.StringVar(&c.index, "index", "wormhole", "index implementation")
	fs.IntVar(&c.store.Shards, "shards", 0, "shard count for -index wormhole-sharded (default: min(GOMAXPROCS, 16))")
	bounds := fs.String("bounds", "", "comma-separated shard boundary keys for -index wormhole-sharded (overrides -shards; place them at your keyspace's quantiles, since the default uniform byte ranges put all-ASCII keys in one shard)")
	fs.StringVar(&c.store.Dir, "dir", "", "durable mode: persist to this directory (WAL + snapshots per shard; reopening recovers). Implies a sharded store; -index must be wormhole-sharded or unset")
	syncMode := fs.String("sync", "none", "durable mode sync policy: none, interval or always")
	fs.IntVar(&c.store.Durability.SegmentBytes, "seg-bytes", 0, "durable mode: target snapshot segment size in bytes (0: 1MiB default); snapshots split at this size so recovery decodes segments concurrently")
	fs.IntVar(&c.store.Durability.DecodeWorkers, "decode-workers", 0, "durable mode: snapshot segment decode workers per shard at recovery (0: GOMAXPROCS)")
	fs.StringVar(&c.follow, "follow", "", "follower mode: replicate from this leader address, serve reads (writes answer StatusReadOnly); SIGUSR1 promotes to standalone. Combine with -dir so restarts resume the leader's WAL tail instead of resyncing")
	fs.DurationVar(&c.connectTimeout, "connect-timeout", 0, "follower mode: keep retrying the first leader handshake this long before giving up and exiting non-zero (0: one attempt, fail fast)")
	fs.BoolVar(&c.autoPromote, "auto-promote", false, "follower mode: promote automatically when the leader goes silent for -heartbeat-timeout, bumping the replication epoch so the old leader is fenced on first contact")
	fs.DurationVar(&c.heartbeatTimeout, "heartbeat-timeout", 2*time.Second, "follower mode: leader silence that triggers -auto-promote")
	fs.DurationVar(&c.server.ReadTimeout, "read-timeout", 0, "drop a connection idle longer than this between batches (0: never)")
	fs.DurationVar(&c.server.WriteTimeout, "write-timeout", 0, "drop a connection that cannot absorb a response within this (0: never)")
	fs.IntVar(&c.server.MaxInflight, "max-inflight", 0, "max concurrently executing request batches across all connections; excess connections queue (0: unlimited)")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve Prometheus /metrics, /healthz, /debug/pprof and /debug/slowops on this address (empty: no listener; metrics are still recorded)")
	fs.DurationVar(&c.slowOp, "slow-op", 100*time.Millisecond, "ops slower than this land in the slow-op ring (/debug/slowops and whkv stat)")
	fs.Parse(args)
	policy, err := wal.ParsePolicy(*syncMode)
	if err != nil {
		return c, err
	}
	c.store.Durability.Sync = policy
	_, known := index.Lookup(c.index)
	switch {
	case c.follow != "" && (c.store.Shards > 0 || *bounds != "" || c.index != "wormhole"):
		return c, errors.New("-shards, -bounds and -index do not apply with -follow: a follower takes its index and shard boundaries from the leader")
	case c.store.Dir == "" && (c.store.Shards > 0 || *bounds != "") && c.index != "wormhole-sharded":
		// With -dir the store is always sharded, so -shards/-bounds apply
		// to it regardless of the (defaulted) -index value.
		return c, errors.New("-shards and -bounds require -index wormhole-sharded")
	case c.store.Dir != "" && c.index != "wormhole" && c.index != "wormhole-sharded":
		return c, fmt.Errorf("-dir serves a durable sharded wormhole; it cannot host -index %s", c.index)
	case !known:
		return c, fmt.Errorf("unknown index %q", c.index)
	}
	if *bounds != "" {
		var bs [][]byte
		for _, b := range strings.Split(*bounds, ",") {
			bs = append(bs, []byte(strings.TrimSpace(b)))
		}
		c.store.Partitioner = shard.NewExplicit(bs)
	}
	return c, nil
}

// storeOptions is the store configuration both modes open with: the
// flags' shape and WAL knobs, recording into mx.
func (c serveConfig) storeOptions(mx *wal.Metrics) shard.Options {
	o := c.store
	o.Durability.Metrics = mx
	return o
}

// node is one opened serve mode: the index to serve and the mode's parts
// of the serve/shutdown sequence that serve runs for both.
type node struct {
	ix   index.Index
	opts netkv.ServerOptions // serveConfig.server plus the mode's fields
	// banner describes the node given its listen address.
	banner func(addr string) string
	// started, when set, runs once the server listens.
	started func(*netkv.Server)
	// promote, when set, handles SIGUSR1; otherwise the signal keeps its
	// default action.
	promote func(*netkv.Server)
	// stop, when set, drains the server and releases what the mode owns,
	// in the mode's order; otherwise the server is just drained.
	stop func(*netkv.Server) error
}

func serve(args []string) {
	c, err := parseServe(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(2)
	}
	obs := newObservability(c.slowOp)
	c.server.Metrics = obs.srv
	var n node
	if c.follow != "" {
		n = openFollower(c, obs)
	} else {
		n = openLeader(c, obs)
	}
	srv, err := netkv.ServeOpts(c.addr, n.ix, n.opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	if n.started != nil {
		n.started(srv)
	}
	obs.armIndex(n.ix)
	health := func() error { return nil }
	st, isStore := n.ix.(*shard.Store)
	if isStore {
		obs.armStore(st)
		health = storeHealth(st)
	}
	obs.serveDebug(c.metricsAddr, health)
	fmt.Println("whkv:", n.banner(srv.Addr()))

	// Run until SIGINT/SIGTERM, then drain connections and close the
	// store, so a clean shutdown of a durable store loses nothing even
	// under -sync none.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if n.promote != nil {
		signal.Notify(sig, syscall.SIGUSR1)
	}
	for s := range sig {
		if s != syscall.SIGUSR1 {
			break
		}
		n.promote(srv)
	}
	fmt.Println("whkv: shutting down")
	if n.stop == nil {
		srv.Close()
		return
	}
	if err := n.stop(srv); err != nil {
		// The sticky WAL error means acked writes may not have reached
		// stable storage: say which shards, then exit non-zero so
		// supervisors notice the data loss risk.
		fmt.Fprintln(os.Stderr, "whkv: closing store:", err)
		printDegraded(st.Health())
		os.Exit(1)
	}
}

// openLeader opens the index a leader serves: a durable sharded store
// with -dir, which doubles as a replication leader, or else a volatile
// index.
func openLeader(c serveConfig, obs *observability) node {
	if c.store.Dir == "" {
		var ix index.Index
		if c.index == "wormhole-sharded" {
			ix = shard.New(c.store)
		} else {
			info, _ := index.Lookup(c.index)
			ix = info.New()
		}
		return node{ix: ix, opts: c.server,
			banner: func(addr string) string { return "serving " + c.index + " on " + addr }}
	}
	st, err := shard.Open(c.storeOptions(obs.wal))
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	fmt.Printf("whkv: recovered %d snapshot pairs + %d WAL records from %s\n",
		st.RecoveredPairs(), st.RecoveredRecords(), c.store.Dir)
	// Followers subscribe on the same address clients use.
	src := repl.NewSource(st)
	obs.armLeader(src.FillStat)
	opts := c.server
	opts.Subscribe, opts.StatFill = src.ServeSubscriber, src.FillStat
	return node{
		ix:   st,
		opts: opts,
		banner: func(addr string) string {
			return fmt.Sprintf("serving durable wormhole-sharded (%d shards, sync=%s, replication leader) on %s",
				st.NumShards(), c.store.Durability.Sync, addr)
		},
		stop: func(srv *netkv.Server) error {
			// Subscriber streams hold their connection handlers; detach
			// them first or the server's drain would wait forever.
			src.Close()
			srv.Close()
			return st.Close()
		},
	}
}

// printDegraded reports each degraded shard's sticky failure to stderr.
func printDegraded(hs []wal.Health) {
	for i, h := range hs {
		if h.Degraded {
			fmt.Fprintf(os.Stderr, "whkv: shard %d degraded: %s (heal attempts: %d)\n",
				i, h.Err, h.HealAttempts)
		}
	}
}

// openFollower starts replication-follower mode: stream the leader's WAL
// into a local store and serve reads from it, rejecting writes, until a
// promotion to a writable standalone store — on SIGUSR1, or automatically
// on leader silence with -auto-promote, which bumps the replication epoch
// so the old leader is fenced on first contact with the new lineage.
func openFollower(c serveConfig, obs *observability) node {
	// Auto-promotion may fire from the follower's monitor goroutine before
	// the serving socket exists; the promotion handler waits for it.
	var served *netkv.Server
	srvReady := make(chan struct{}) // closed once served is set
	// promoted transfers ownership of the store from the follower to us.
	var promoted atomic.Bool
	promotions := obs.reg.Counter("whkv_promotions_total",
		"Promotions of this follower to a writable leader.")
	so := c.storeOptions(obs.wal)
	o := repl.Options{
		Leader:           c.follow,
		Dir:              so.Dir,
		Durability:       so.Durability,
		AutoPromote:      c.autoPromote,
		HeartbeatTimeout: c.heartbeatTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "whkv: "+format+"\n", args...)
		},
		OnPromote: func(st *shard.Store) {
			<-srvReady
			served.SetReadOnly(false)
			promoted.Store(true)
			promotions.Inc()
			fmt.Printf("whkv: leader %s silent for %v: auto-promoted to epoch %d (writes enabled)\n",
				c.follow, c.heartbeatTimeout, st.Epoch())
			// Best-effort fence of the old leader, should it still be alive
			// behind a partition: a direct FENCE closes the window before
			// replication-level contact would. Failure is fine — a dead
			// leader is fenced on its first contact with this lineage.
			if cl, err := netkv.Dial(c.follow); err == nil {
				cl.Timeout = 2 * time.Second
				if err := cl.Fence(st.Epoch()); err == nil {
					fmt.Printf("whkv: fenced old leader %s at epoch %d\n", c.follow, st.Epoch())
				}
				cl.Close()
			}
		},
	}
	// -connect-timeout: the first handshake may race the leader's own
	// startup (an init system bringing both up), so retry it rather than
	// failing fast — but never indefinitely, and exit non-zero when the
	// leader never materializes.
	deadline := time.Now().Add(c.connectTimeout)
	f, err := repl.Start(o)
	for err != nil && c.connectTimeout > 0 && time.Now().Before(deadline) {
		fmt.Fprintf(os.Stderr, "whkv: waiting for leader: %v\n", err)
		time.Sleep(500 * time.Millisecond)
		f, err = repl.Start(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	st := f.Store()
	obs.armFollower(f.FillStat)
	persisted := "volatile; resyncs on restart"
	if so.Dir != "" {
		persisted = "durable in " + so.Dir
	}
	promoteHow := "SIGUSR1 promotes"
	if c.autoPromote {
		promoteHow = fmt.Sprintf("auto-promote after %v of leader silence (SIGUSR1 forces it)", c.heartbeatTimeout)
	}
	opts := c.server
	opts.ReadOnly, opts.StatFill = true, f.FillStat
	return node{
		ix:   st,
		opts: opts,
		banner: func(addr string) string {
			return fmt.Sprintf("following %s on %s (%d shards, %s); %s",
				c.follow, addr, st.NumShards(), persisted, promoteHow)
		},
		started: func(srv *netkv.Server) {
			served = srv
			close(srvReady)
		},
		promote: func(srv *netkv.Server) {
			// Clean promotion: stop streaming, bump the epoch, then open
			// the store to writes. The process keeps serving without a
			// restart. Promote is idempotent against a racing
			// auto-promotion — exactly one epoch bump happens.
			if !promoted.Load() && f.Promote() != nil {
				srv.SetReadOnly(false)
				promoted.Store(true)
				promotions.Inc()
				fmt.Printf("whkv: promoted to epoch %d (writes enabled, replication stopped)\n", st.Epoch())
			}
		},
		stop: func(srv *netkv.Server) error {
			srv.Close()
			// Closing the follower stops the auto-promote monitor, so the
			// promotion state is final when deciding who owns the store.
			err := f.Close()
			if promoted.Load() {
				err = st.Close()
			}
			return err
		},
	}
}

// stat prints a server's OpStat document.
func stat(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	fs.Parse(args)
	cl, err := netkv.Dial(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	defer cl.Close()
	st, err := cl.Stat()
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	fmt.Printf("role:      %s%s\n", st.Role, map[bool]string{true: " (read-only)"}[st.ReadOnly])
	if st.Epoch > 0 {
		fmt.Printf("epoch:     %d\n", st.Epoch)
	}
	if st.FencedBy > 0 {
		fmt.Printf("fenced:    by epoch %d (stale leader; writes answer StatusFenced)\n", st.FencedBy)
	}
	fmt.Printf("keys:      %d\n", st.Keys)
	if st.Shards > 0 {
		fmt.Printf("shards:    %d\n", st.Shards)
	}
	fmt.Printf("durable:   %v\n", st.Durable)
	if st.Durable {
		fmt.Printf("wal bytes: %s (%d)\n", humanBytes(st.WALBytes), st.WALBytes)
		fmt.Printf("gens:      %v\n", st.Gens)
	}
	if st.UptimeS > 0 || st.GoVersion != "" {
		fmt.Printf("uptime:    %v\n", time.Duration(st.UptimeS)*time.Second)
		fmt.Printf("runtime:   %s, %d goroutines, heap %s (sys %s), %d GCs\n",
			st.GoVersion, st.Goroutines,
			humanBytes(int64(st.HeapAllocBytes)), humanBytes(int64(st.HeapSysBytes)),
			st.GCCycles)
	}
	if st.SlowOps > 0 {
		fmt.Printf("slow ops:  %d traced (see /debug/slowops on the metrics listener)\n", st.SlowOps)
	}
	healthy := 0
	for _, h := range st.Health {
		if !h.Degraded {
			healthy++
		}
	}
	if len(st.Health) > 0 {
		fmt.Printf("health:    %d/%d shards ok\n", healthy, len(st.Health))
		for i, h := range st.Health {
			if h.Degraded {
				fmt.Printf("shard %-4d degraded: %s (heal attempts: %d)\n", i, h.Err, h.HealAttempts)
			}
		}
	}
	for _, fo := range st.Followers {
		lag := fmt.Sprintf("%d records", fo.LagRecords)
		if fo.LagRecords < 0 {
			lag = "spans a WAL rotation"
		}
		fmt.Printf("follower:  %s lag %s, last ack %v ago, %d snapshots sent\n",
			fo.Remote, lag, time.Duration(fo.AckAgeMS)*time.Millisecond, fo.SnapshotsSent)
	}
	if st.Role == "follower" {
		fmt.Printf("leader:    %s (connected: %v)\n", st.Leader, st.Connected)
		if st.LeaderEpoch > 0 {
			fmt.Printf("leader epoch: %d\n", st.LeaderEpoch)
		}
		if st.LagRecords != nil {
			if *st.LagRecords < 0 {
				fmt.Printf("lag:       spans a WAL rotation\n")
			} else {
				fmt.Printf("lag:       %d records\n", *st.LagRecords)
			}
		}
		fmt.Printf("applied:   %v\n", st.Applied)
		if st.SnapshotsApplied > 0 {
			fmt.Printf("snapshots: %d applied\n", st.SnapshotsApplied)
		}
	}
}

func oneShot(cmd string, args []string) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	key := fs.String("key", "", "key")
	val := fs.String("val", "", "value (set)")
	limit := fs.Int("limit", 10, "scan limit")
	fs.Parse(args)
	cl, err := netkv.Dial(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	defer cl.Close()
	switch cmd {
	case "get":
		cl.QueueGet([]byte(*key))
	case "set":
		cl.QueueSet([]byte(*key), []byte(*val))
	case "del":
		cl.QueueDel([]byte(*key))
	case "scan":
		cl.QueueScan([]byte(*key), *limit)
	case "flush":
		cl.QueueFlush()
	}
	rs, err := cl.Flush()
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	out, code := outcome(cmd, rs[0])
	if code != 0 {
		fmt.Fprintln(os.Stderr, "whkv:", out)
		os.Exit(code)
	}
	fmt.Print(out)
}

// outcome maps a one-shot command's reply to what whkv reports: the text
// for stdout and exit code 0, or an error message for stderr and exit
// code 1.
func outcome(cmd string, r netkv.Response) (string, int) {
	write := cmd == "set" || cmd == "del"
	what := map[string]string{"set": "write", "del": "delete"}[cmd]
	switch {
	case r.Status == netkv.StatusOK:
		switch cmd {
		case "get":
			return string(r.Val) + "\n", 0
		case "scan":
			var b strings.Builder
			for i := range r.Keys {
				fmt.Fprintf(&b, "%s = %s\n", r.Keys[i], r.Vals[i])
			}
			return b.String(), 0
		}
		return map[string]string{"set": "ok\n", "del": "deleted\n", "flush": "flushed\n"}[cmd], 0
	case r.Status == netkv.StatusNotFound && cmd != "set":
		// A scan answers NotFound when the index cannot range-scan.
		return map[string]string{"get": "(not found)\n", "del": "(not found)\n", "flush": "(server is volatile)\n"}[cmd], 0
	case r.Status == netkv.StatusReadOnly && write:
		return "server is a read-only follower; write to the leader", 1
	case r.Status == netkv.StatusDegraded && write:
		return "shard is degraded (WAL write failing); refusing writes until it heals — see whkv stat", 1
	case r.Status == netkv.StatusFenced && write:
		return "server is a fenced stale leader (a higher epoch exists); the " + what + " was NOT applied — resend it to the current leader (see whkv stat for both epochs)", 1
	case cmd == "flush":
		return "flush failed on the server (sticky WAL error; see whkv stat for per-shard health)", 1
	case cmd == "get":
		return "get failed on the server (a failing shard, or a value too large for one response)", 1
	case cmd == "del":
		return "delete failed on the server", 1
	}
	return cmd + " failed on the server", 1
}

func clientBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	keys := fs.Int("keys", 100_000, "keys to load before measuring")
	batch := fs.Int("batch", netkv.DefaultBatch, "requests per batch")
	dur := fs.Duration("duration", 2*time.Second, "measurement window")
	fs.Parse(args)
	cl, err := netkv.Dial(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	defer cl.Close()
	for i := 0; i < *keys; i++ {
		cl.QueueSet([]byte(fmt.Sprintf("bench:%08d", i)), []byte("v"))
		if cl.Pending() >= *batch {
			if _, err := cl.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "whkv:", err)
				os.Exit(1)
			}
		}
	}
	if _, err := cl.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "whkv:", err)
		os.Exit(1)
	}
	fmt.Printf("loaded %d keys; measuring GETs for %v (batch %d)\n", *keys, *dur, *batch)
	r := bench.NewRng(1)
	start := time.Now()
	ops := 0
	for time.Since(start) < *dur {
		for i := 0; i < *batch; i++ {
			cl.QueueGet([]byte(fmt.Sprintf("bench:%08d", r.Intn(*keys))))
		}
		rs, err := cl.Flush()
		if err != nil {
			fmt.Fprintln(os.Stderr, "whkv:", err)
			os.Exit(1)
		}
		for _, rp := range rs {
			if rp.Status != netkv.StatusOK {
				fmt.Fprintln(os.Stderr, "whkv: missing key during bench")
				os.Exit(1)
			}
		}
		ops += *batch
	}
	el := time.Since(start).Seconds()
	fmt.Printf("%d lookups in %.2fs = %.2f MOPS\n", ops, el, float64(ops)/el/1e6)
}
