package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestFlagSurface pins the flag names `skylined -h` lists, so adding or
// removing an option is a deliberate, reviewed change.
func TestFlagSurface(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{"-h"})
	os.Stderr = stderr
	w.Close()
	usage, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", runErr)
	}

	var got []string
	for _, line := range strings.Split(string(usage), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	want := []string{
		"addr", "cache", "cache-shards", "compact-threshold", "coordinator",
		"data-dir", "dataset", "demo", "engine", "fsync", "fsync-interval",
		"hedge", "max-queued", "partitioner", "partitions", "pprof",
		"probe-interval", "query-timeout", "readonly", "rearm-backoff",
		"semantic-limit", "shard", "shard-inflight", "shard-mode",
		"shard-timeout", "template", "topk", "workers",
	}
	slices.Sort(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("skylined -h lists %d flags %v, want %d %v", len(got), got, len(want), want)
	}
}

// TestModeRejectsForeignFlags: a flag the chosen mode never reads fails the
// start instead of being ignored, and the mode's own flags pass the check.
// The valid rows reach the listener, which "bad-addr" makes fail.
func TestModeRejectsForeignFlags(t *testing.T) {
	const shard = "http://127.0.0.1:1"
	cases := []struct {
		args []string
		want string // substring of the error; "" = the listener is the first failure
	}{
		{[]string{"-coordinator", "-shard", shard, "-demo", "-workers", "4"}, "-workers is not read with -coordinator"},
		{[]string{"-coordinator", "-shard", shard, "-demo", "-query-timeout", "1s"}, "-query-timeout is not read with -coordinator"},
		{[]string{"-coordinator", "-shard", shard, "-demo", "-engine", "ipo"}, "-engine is not read with -coordinator"},
		{[]string{"-coordinator", "-shard", shard, "-demo", "-data-dir", t.TempDir()}, "-data-dir is not read with -coordinator"},
		{[]string{"-demo", "-hedge", "1s"}, "-hedge requires -coordinator"},
		{[]string{"-shard-mode", "-partitioner", "grid"}, "-partitioner requires -coordinator"},
		{[]string{"-demo", "-shard", shard}, "-shard requires -coordinator"},
		{[]string{"-coordinator", "-partitioner", "hash", "-cache", "64", "-demo", "-shard", shard, "-hedge", "5ms"}, ""},
		{[]string{"-shard-mode", "-engine", "sfsd", "-cache", "-1"}, ""},
		{[]string{"-demo", "-engine", "ipo", "-topk", "2", "-workers", "2", "-query-timeout", "1s"}, ""},
	}
	for _, c := range cases {
		err := run(append(c.args, "-addr", "bad-addr"))
		if err == nil {
			t.Fatalf("run(%v) = nil, want an error", c.args)
		}
		switch {
		case c.want == "" && !strings.Contains(err.Error(), "bad-addr"):
			t.Errorf("run(%v) = %v, want only the listener to fail", c.args, err)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("run(%v) = %v, want error containing %q", c.args, err, c.want)
		}
	}
}
