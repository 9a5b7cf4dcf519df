package netkv

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/repro/wormhole/internal/index"
	"github.com/repro/wormhole/internal/shard"
)

// panicIndex wraps an index and panics on a poison key: the lever for
// proving a handler panic costs one connection, not the process. Only the
// plain Index surface is forwarded, so requests take the inline path.
type panicIndex struct {
	index.Index
}

func (p *panicIndex) Get(key []byte) ([]byte, bool) {
	if string(key) == "boom" {
		panic("poison key")
	}
	return p.Index.Get(key)
}

func TestPanicDropsConnectionNotServer(t *testing.T) {
	s, err := Serve("127.0.0.1:0", &panicIndex{Index: shard.New(shard.Options{Shards: 2})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c1, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c1.QueueSet([]byte("k"), []byte("v"))
	if _, err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	c1.QueueGet([]byte("boom"))
	if _, err := c1.Flush(); err == nil {
		t.Fatal("poisoned request got a response; want a dropped connection")
	}

	// The server survives: a fresh connection serves normally.
	c2, err := Dial(s.Addr())
	if err != nil {
		t.Fatalf("server died with the poisoned connection: %v", err)
	}
	defer c2.Close()
	c2.QueueGet([]byte("k"))
	rs, err := c2.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Status != StatusOK || string(rs[0].Val) != "v" {
		t.Fatalf("after panic: %+v", rs[0])
	}
}

// panicHandle panics on a poison key from inside a pinned read handle —
// i.e. inside one shard's group of the executor. It deliberately does not
// implement BatchHandle, so poisoned Gets reach its Get instead of the
// batched path.
type panicHandle struct {
	inner index.ReadHandle
}

func (h *panicHandle) Get(key []byte) ([]byte, bool) {
	if strings.HasPrefix(string(key), "boom") {
		panic("poison key")
	}
	return h.inner.Get(key)
}

func (h *panicHandle) Close() { h.inner.Close() }

// panicPinner serves panicHandles; everything else (routing, batching,
// mutation) is the real sharded store.
type panicPinner struct {
	*shard.Store
}

func (p *panicPinner) NewReadHandle() index.ReadHandle {
	return &panicHandle{inner: p.Store.NewReadHandle()}
}

// TestWorkerPanicAnswersErrAndPoolSurvives panics inside one shard's
// group of a batch: the poisoned group must answer StatusErr in a
// well-formed frame — the connection survives, the other shard's results
// are intact — and the connection keeps serving later batches.
func TestWorkerPanicAnswersErrAndPoolSurvives(t *testing.T) {
	// No Sample: uniform byte-range partitioning, so "boom" (0x62...)
	// lands on shard 0 and the 0xf0 key on shard 1 — two shard groups,
	// one poisoned and one healthy.
	s, err := Serve("127.0.0.1:0", &panicPinner{Store: shard.New(shard.Options{Shards: 2})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	hi := []byte{0xf0, 0x01}
	c.QueueSet(hi, []byte("hv"))
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.QueueGet([]byte("boom"))
	c.QueueGet(hi)
	rs, err := c.Flush()
	if err != nil {
		t.Fatalf("group panic broke the connection: %v", err)
	}
	if rs[0].Status != StatusErr {
		t.Fatalf("poisoned get: status %d, want StatusErr", rs[0].Status)
	}
	if rs[1].Status != StatusOK || string(rs[1].Val) != "hv" {
		t.Fatalf("healthy shard's result corrupted by sibling panic: %+v", rs[1])
	}

	// Same connection, same handle: serving continues.
	c.QueueGet(hi)
	c.QueueGet([]byte("absent"))
	rs, err = c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Status != StatusOK || rs[1].Status != StatusNotFound {
		t.Fatalf("connection dead after panic: %+v %+v", rs[0], rs[1])
	}
}

// TestReadTimeoutDropsIdleAndFlushRetryRecovers exercises the server's
// per-connection read deadline together with the client's read-only
// retry: the server drops a connection idle past ReadTimeout, and a
// FlushRetry of an all-reads batch redials and re-sends transparently —
// while a batch containing a mutation refuses to retry.
func TestReadTimeoutDropsIdleAndFlushRetryRecovers(t *testing.T) {
	st := shard.New(shard.Options{Shards: 2})
	s, err := ServeOpts("127.0.0.1:0", st, ServerOptions{ReadTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.QueueSet([]byte("k"), []byte("v"))
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Idle past the deadline: the server has dropped us by now.
	time.Sleep(500 * time.Millisecond)
	c.QueueGet([]byte("k"))
	rs, err := c.FlushRetry(5 * time.Second)
	if err != nil {
		t.Fatalf("idempotent retry did not recover: %v", err)
	}
	if rs[0].Status != StatusOK || string(rs[0].Val) != "v" {
		t.Fatalf("retried get: %+v", rs[0])
	}

	// A batch with a mutation must NOT be silently re-sent.
	time.Sleep(500 * time.Millisecond)
	c.QueueSet([]byte("k2"), []byte("v2"))
	if _, err := c.FlushRetry(time.Second); err == nil {
		t.Fatal("mutating batch silently retried")
	}
	// The caller decides: an explicit Redial resumes service.
	if err := c.Redial(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.QueueGet([]byte("k"))
	if rs, err = c.Flush(); err != nil || rs[0].Status != StatusOK {
		t.Fatalf("after explicit redial: %v %+v", err, rs)
	}
}

// TestMaxInflightServesConcurrentLoad is a correctness smoke under a tiny
// backpressure cap: many concurrent clients, every response still correct
// and every batch eventually served.
func TestMaxInflightServesConcurrentLoad(t *testing.T) {
	st := shard.New(shard.Options{Shards: 4})
	s, err := ServeOpts("127.0.0.1:0", st, ServerOptions{MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 40; i++ {
				key := []byte{byte('a' + g), byte(i)}
				c.QueueSet(key, key)
				c.QueueGet(key)
				rs, err := c.Flush()
				if err != nil {
					t.Errorf("client %d: %v", g, err)
					return
				}
				if rs[1].Status != StatusOK || string(rs[1].Val) != string(key) {
					t.Errorf("client %d: %+v", g, rs[1])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// hangingServer accepts connections and then ignores them — the classic
// stuck peer: the TCP handshake succeeds, requests vanish into kernel
// buffers, and no byte ever comes back.
func hangingServer(t *testing.T) (net.Listener, *Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		var held []net.Conn
		for {
			conn, err := ln.Accept()
			if err != nil {
				for _, h := range held {
					h.Close()
				}
				return
			}
			held = append(held, conn)
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return ln, c
}

// TestClientTimeoutExpires bounds a Flush against a server that stops
// responding: accept the connection, read nothing, send nothing.
func TestClientTimeoutExpires(t *testing.T) {
	ln, c := hangingServer(t)
	defer ln.Close()
	c.Timeout = 50 * time.Millisecond
	c.QueueGet([]byte("k"))
	start := time.Now()
	if _, err := c.Flush(); err == nil {
		t.Fatal("flush against a hung server returned")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("deadline took %v to fire", el)
	}
}
