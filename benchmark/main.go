// Command benchmark is the end-to-end benchmark of skylined. It builds
// cmd/skylined, spawns real server processes on loopback ports, drives them
// over HTTP/JSON with inputs generated from -seed, checks every answer
// against its own oracle and reports the metrics BENCHMARK.json names.
//
//	go run -C benchmark . -workload cold-scan -seed 1 -seconds 18 -trace 0
//	go run -C benchmark .                       # every workload, gated and traced
//	go run -C benchmark . -compare a.jsonl b.jsonl
//
// With -trace 0 (the gated run) it prints the end-to-end metrics, with
// -trace 1 (the traced run) the per-layer metrics; the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}. See
// README.md for the workloads, the metrics and how to read a trace file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all)")
		seed         = flag.Int64("seed", 1, "seed of the generated data, preferences and schedules")
		seconds      = flag.Float64("seconds", runSeconds, "measured seconds per gated run: a third closed-loop, two thirds open-loop")
		trace        = flag.Int("trace", -1, "0: gated run, end-to-end metrics; 1: traced run, per-layer metrics; default both")
		out          = flag.String("out", "", "append every run's record to this JSON-lines file")
		compare      = flag.Bool("compare", false, "compare two -out files: benchmark -compare parent.jsonl change.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare parent.jsonl change.jsonl")
			return 2
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	selected := workloads
	if *workloadName != "" {
		wl := findWorkload(*workloadName)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []*workload{wl}
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	// SIGINT and SIGTERM cancel ctx; every spawned server is then SIGTERMed
	// and waited for on the way out.
	//lint:background process lifecycle root: main has no caller to inherit a ctx from
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env, err := newEnvironment(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printHeader(env, *seed, *seconds, selected)

	var outFile *os.File
	if *out != "" {
		if outFile, err = os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		defer outFile.Close()
	}

	p := params{seed: *seed, seconds: *seconds, setups: 3, traceLen: 500}
	code := 0
	var last *record
	for _, wl := range selected {
		for _, mode := range []int{0, 1} {
			if *trace >= 0 && *trace != mode {
				continue
			}
			var rec *record
			defs := endToEndMetrics
			if mode == 0 {
				rec, err = runGated(ctx, env, wl, p)
			} else {
				rec, err = runTraced(ctx, env, wl, p)
				defs = perLayerMetrics
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
				return 1
			}
			rec.Trace = mode
			rec.print(os.Stdout, defs)
			if outFile != nil {
				if err := json.NewEncoder(outFile).Encode(rec); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
			}
			if !rec.Correct {
				code = 1
			}
			last = rec
		}
	}
	if outFile != nil {
		if err := outFile.Sync(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if code == 0 && len(selected) == 1 && *trace >= 0 {
		fmt.Println(last.resultLine())
	}
	return code
}

func newEnvironment(ctx context.Context) (*environment, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	env := &environment{root: root, outDir: filepath.Join(root, "benchmark", "out")}
	if env.bin, err = buildServer(ctx, root, env.outDir); err != nil {
		return nil, err
	}
	return env, nil
}

// printHeader records what the numbers below were measured on.
func printHeader(env *environment, seed int64, seconds float64, selected []*workload) {
	commit := "unknown (not a git checkout)"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = env.root
	if b, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	fmt.Printf("# commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %g s measured per run\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, seconds)
	for _, wl := range selected {
		fmt.Printf("# %s: %d connections, open phase offers %g req/s\n", wl.name, runtime.NumCPU(), wl.rate)
	}
}
