package main

import (
	"strings"
	"testing"

	"github.com/repro/wormhole/internal/netkv"
	"github.com/repro/wormhole/internal/wal"
)

func TestOutcome(t *testing.T) {
	const (
		ok   = netkv.StatusOK
		nf   = netkv.StatusNotFound
		serr = netkv.StatusErr
		ro   = netkv.StatusReadOnly
		deg  = netkv.StatusDegraded
		fen  = netkv.StatusFenced
	)
	for _, tc := range []struct {
		cmd    string
		status byte
		code   int
		out    string // stdout text for code 0, a substring of the message otherwise
	}{
		{"get", ok, 0, "v\n"},
		{"get", nf, 0, "(not found)\n"},
		{"get", serr, 1, "get failed on the server"},
		{"get", ro, 1, "get failed"},
		{"get", deg, 1, "get failed"},
		{"get", fen, 1, "get failed"},

		{"set", ok, 0, "ok\n"},
		{"set", nf, 1, "set failed on the server"},
		{"set", serr, 1, "set failed on the server"},
		{"set", ro, 1, "read-only follower"},
		{"set", deg, 1, "degraded"},
		{"set", fen, 1, "the write was NOT applied"},

		{"del", ok, 0, "deleted\n"},
		{"del", nf, 0, "(not found)\n"},
		{"del", serr, 1, "delete failed on the server"},
		{"del", ro, 1, "read-only follower"},
		{"del", deg, 1, "degraded"},
		{"del", fen, 1, "the delete was NOT applied"},

		{"scan", ok, 0, "a = 1\nb = 2\n"},
		{"scan", nf, 0, ""}, // an index without range scans answers nothing
		{"scan", serr, 1, "scan failed on the server"},
		{"scan", ro, 1, "scan failed"},
		{"scan", deg, 1, "scan failed"},
		{"scan", fen, 1, "scan failed"},

		{"flush", ok, 0, "flushed\n"},
		{"flush", nf, 0, "(server is volatile)\n"},
		{"flush", serr, 1, "flush failed on the server"},
		{"flush", ro, 1, "flush failed"},
		{"flush", deg, 1, "flush failed"},
		{"flush", fen, 1, "flush failed"},
	} {
		r := netkv.Response{Status: tc.status}
		if tc.status == ok {
			r.Val = []byte("v")
			r.Keys = [][]byte{[]byte("a"), []byte("b")}
			r.Vals = [][]byte{[]byte("1"), []byte("2")}
		}
		out, code := outcome(tc.cmd, r)
		if code != tc.code {
			t.Errorf("%s status %d: exit %d, want %d (%q)", tc.cmd, tc.status, code, tc.code, out)
		}
		if tc.code == 0 && out != tc.out {
			t.Errorf("%s status %d: printed %q, want %q", tc.cmd, tc.status, out, tc.out)
		}
		if tc.code != 0 && !strings.Contains(out, tc.out) {
			t.Errorf("%s status %d: message %q lacks %q", tc.cmd, tc.status, out, tc.out)
		}
	}
}

func TestParseServe(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string // "" means valid
	}{
		{nil, ""},
		{[]string{"-dir", "/d", "-shards", "4"}, ""},
		{[]string{"-dir", "/d", "-index", "wormhole-sharded", "-bounds", "g,n"}, ""},
		{[]string{"-index", "wormhole-sharded", "-shards", "4"}, ""},
		{[]string{"-index", "art"}, ""},
		{[]string{"-follow", "h:1", "-dir", "/d", "-auto-promote"}, ""},
		{[]string{"-shards", "4"}, "require -index wormhole-sharded"},
		{[]string{"-bounds", "g"}, "require -index wormhole-sharded"},
		{[]string{"-dir", "/d", "-index", "art"}, "cannot host -index art"},
		{[]string{"-follow", "h:1", "-shards", "4"}, "do not apply with -follow"},
		{[]string{"-follow", "h:1", "-bounds", "g"}, "do not apply with -follow"},
		{[]string{"-follow", "h:1", "-index", "wormhole-sharded"}, "do not apply with -follow"},
		{[]string{"-sync", "sometimes"}, "sometimes"},
		{[]string{"-index", "no-such-index"}, "unknown index"},
	} {
		_, err := parseServe(tc.args)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: unexpected error %v", tc.args, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.err)
		}
	}

	c, err := parseServe([]string{"-dir", "/d", "-shards", "4", "-sync", "always", "-seg-bytes", "4096",
		"-decode-workers", "3", "-read-timeout", "5s", "-max-inflight", "7"})
	if err != nil {
		t.Fatal(err)
	}
	o := c.storeOptions(nil)
	if o.Dir != "/d" || o.Shards != 4 || o.Partitioner != nil {
		t.Fatalf("store options = %+v, want Dir /d, Shards 4, no partitioner", o)
	}
	if d := o.Durability; d.Sync != wal.SyncAlways || d.SegmentBytes != 4096 || d.DecodeWorkers != 3 {
		t.Fatalf("durability = %+v", d)
	}
	if c.server.ReadTimeout.String() != "5s" || c.server.MaxInflight != 7 {
		t.Fatalf("server options = %+v", c.server)
	}

	c, err = parseServe([]string{"-index", "wormhole-sharded", "-bounds", "t, g,n"})
	if err != nil {
		t.Fatal(err)
	}
	if p := c.store.Partitioner; p == nil || p.NumShards() != 4 {
		t.Fatalf("-bounds t,g,n: partitioner %v, want 4 shards", p)
	}
}
