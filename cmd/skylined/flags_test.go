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
