// Command skylined serves implicit-preference skyline queries over HTTP: the
// concurrent front end to the paper's engines, built on internal/service
// (engine registry + canonical-preference result cache + bounded worker
// pool).
//
// Usage:
//
//	skylined -addr :8080 -demo
//	skylined -addr :8080 -dataset hotels=schema.json,data.csv -engine hybrid -topk 10
//	skylined -addr :8080 -demo -engine parallel-sfs -partitions 8 -query-timeout 250ms
//	skylined -addr :8080 -demo -pprof 127.0.0.1:6060
//
// Endpoints:
//
//	GET  /healthz      liveness
//	GET  /v1/datasets  hosted datasets and per-dataset counters
//	GET  /v1/stats     cache + executor + snapshot/compaction counters
//	POST /v1/query     {"dataset":"flights","preference":"Airline: Gonna<*"}
//	POST /v1/batch     {"dataset":"flights","preferences":["...", "..."]}
//	POST /v1/insert    {"dataset":"flights","points":[{"numeric":{...},"nominal":{...}}]}
//	POST /v1/delete    {"dataset":"flights","ids":[17,42]}
//
// Preferences use the library's string syntax ("Attr: a<b<*; Other: c<*").
// Canonically equal preferences — e.g. a total order and its forced-last
// prefix — share result-cache entries, so skewed traffic is served hot. A
// write leaves cached answers in place: the next lookup patches an answer to
// the current version by scanning its ids plus the points inserted since,
// and runs the engine only if a member was deleted. An exact cache miss
// additionally probes the preference's refinement lattice: if a strictly
// coarser preference's skyline is cached, Theorem 1 bounds the refined
// skyline by those candidates and the flat kernel scans only them (response
// field "semantic": true; -semantic-limit tunes the largest ancestor worth
// scanning). /v1/stats reports hits, semanticHits and misses.
//
// Every engine kind accepts maintenance: datasets live in a versioned
// columnar store, queries read atomically-swapped snapshots without ever
// blocking behind writers, and -compact-threshold tunes when the store
// rebuilds its base layout in the background. -readonly freezes all hosted
// datasets (mutations answer 409).
//
// Every request is context-bound: -query-timeout deadline-bounds uncached
// queries (HTTP 504 past it), and a disconnected client releases its worker
// slot and aborts in-flight partitioned scans. The server itself runs with
// read/write/idle timeouts and shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"prefsky"
	"prefsky/internal/cluster"
	"prefsky/internal/data"
	"prefsky/internal/durable"
	"prefsky/internal/gen"
	"prefsky/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "skylined:", err)
		os.Exit(1)
	}
}

// datasetFlags collects repeated -dataset name=schema.json,data.csv values.
type datasetFlags []string

func (d *datasetFlags) String() string     { return strings.Join(*d, " ") }
func (d *datasetFlags) Set(v string) error { *d = append(*d, v); return nil }

func run(args []string) error {
	fs := flag.NewFlagSet("skylined", flag.ContinueOnError)
	var datasets datasetFlags
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		engine     = fs.String("engine", "sfsa", "engine per dataset: ipo, sfsa, sfsd, hybrid, parallel-sfs or parallel-hybrid")
		topK       = fs.Int("topk", 0, "materialize only the K most frequent values (ipo/hybrid)")
		partitions = fs.Int("partitions", 0, "blocks per parallel-sfs/parallel-hybrid query (0 = GOMAXPROCS)")
		tmplSpec   = fs.String("template", "", "template preference shared by all users")
		cacheCap   = fs.Int("cache", 4096, "result cache capacity in entries (negative disables)")
		shards     = fs.Int("cache-shards", 16, "result cache shard count")
		workers    = fs.Int("workers", 0, "max concurrent engine queries (0 = GOMAXPROCS)")
		queryTO    = fs.Duration("query-timeout", 0, "per-query deadline for uncached queries (0 = none)")
		semLimit   = fs.Int("semantic-limit", 0, "max cached coarser-skyline size the semantic cache path will scan (0 = default 4096, negative disables)")
		demo       = fs.Bool("demo", false, "host the built-in flights demo dataset")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty disables)")
		compactAt  = fs.Int("compact-threshold", 0, "delta+tombstone rows that trigger background compaction (0 = default, negative disables)")
		readOnly   = fs.Bool("readonly", false, "freeze all datasets: /v1/insert and /v1/delete answer 409")
		dataDir    = fs.String("data-dir", "", "persist datasets under this directory (WAL + checkpoints, recovered on restart; empty = memory only)")
		fsyncSpec  = fs.String("fsync", "interval", "WAL sync policy with -data-dir: always (sync per mutation), interval (group commit) or off")
		fsyncEvery = fs.Duration("fsync-interval", 0, "group-commit sync period with -fsync interval (0 = 50ms default)")
		maxQueued  = fs.Int("max-queued", 0, "max engine queries waiting for a worker before new ones are shed with 503 (0 = 8x workers, negative = unbounded)")
		rearmWait  = fs.Duration("rearm-backoff", 0, "initial backoff between degraded-mode disk re-arm probes (0 = 250ms default, doubling to 30s)")
		shardMode  = fs.Bool("shard-mode", false, "serve as a cluster shard: mount /v1/shard/* for coordinator partition pushes (datasets optional at boot)")
		coordMode  = fs.Bool("coordinator", false, "serve as a cluster coordinator scatter-gathering over the -shard fleet")
		partSpec   = fs.String("partitioner", "hash", "coordinator dataset partitioner: hash or grid")
		shardTO    = fs.Duration("shard-timeout", 0, "coordinator per-shard request timeout (0 = 5s default)")
		hedgeWait  = fs.Duration("hedge", 0, "coordinator delay before hedging a slow shard request to its replica (0 disables hedging)")
		shardInfl  = fs.Int("shard-inflight", 0, "coordinator max in-flight requests per shard (0 = 64 default)")
		probeEvery = fs.Duration("probe-interval", 0, "coordinator shard health/re-push probe period (0 = 2s default, negative disables)")
	)
	var shardURLs datasetFlags
	fs.Var(&datasets, "dataset", "name=schema.json,data.csv (repeatable)")
	fs.Var(&shardURLs, "shard", "shard base URL as url or url|replica-url (repeatable, coordinator mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordMode && *shardMode {
		return fmt.Errorf("-coordinator and -shard-mode are mutually exclusive")
	}
	if err := rejectForeignFlags(fs, *coordMode); err != nil {
		return err
	}
	if *coordMode {
		if len(shardURLs) == 0 {
			return fmt.Errorf("-coordinator requires at least one -shard url")
		}
		if len(datasets) == 0 && !*demo {
			return fmt.Errorf("no datasets: pass -dataset name=schema.json,data.csv or -demo")
		}
		return runCoordinator(coordinatorConfig{
			addr: *addr, shards: shardURLs, partitioner: *partSpec,
			datasets: datasets, demo: *demo,
			cacheCap: *cacheCap, cacheShards: *shards, semLimit: *semLimit,
			shardTimeout: *shardTO, hedge: *hedgeWait, inflight: *shardInfl,
			probeInterval: *probeEvery, pprofAddr: *pprofAddr,
		})
	}
	if len(datasets) == 0 && !*demo && !*shardMode {
		return fmt.Errorf("no datasets: pass -dataset name=schema.json,data.csv or -demo")
	}
	fsyncPolicy, err := durable.ParsePolicy(*fsyncSpec)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr); err != nil {
			return err
		}
	}

	svc := service.New(service.Options{
		CacheCapacity:          *cacheCap,
		CacheShards:            *shards,
		Workers:                *workers,
		QueryTimeout:           *queryTO,
		SemanticCandidateLimit: *semLimit,
		MaxQueuedQueries:       *maxQueued,
	})
	cfgFor := func(name string, schema *data.Schema) (service.EngineConfig, error) {
		tmpl, err := data.ParsePreference(schema, *tmplSpec)
		if err != nil {
			return service.EngineConfig{}, fmt.Errorf("parsing template: %w", err)
		}
		cfg := service.EngineConfig{
			Kind:             *engine,
			Template:         tmpl,
			Tree:             prefsky.TreeOptions{TopK: *topK},
			Partitions:       *partitions,
			CompactThreshold: *compactAt,
			ReadOnly:         *readOnly,
		}
		cfg.Durable = durableConfig(*dataDir, name, fsyncPolicy, *fsyncEvery, *rearmWait)
		return cfg, nil
	}

	// Dataset registration — durable recovery and WAL replay included — runs
	// as the boot step after the listener is already up: /healthz answers
	// (liveness) while /readyz stays 503 until registration completes.
	srv := newServer(svc)
	var handler http.Handler = srv
	if *shardMode {
		// Coordinator-pushed partitions run the same engine configuration as
		// locally hosted datasets, minus durability and template preferences
		// (partitions are read-only snapshots versioned by the coordinator).
		shardCfg := service.EngineConfig{
			Kind:             *engine,
			Tree:             prefsky.TreeOptions{TopK: *topK},
			Partitions:       *partitions,
			CompactThreshold: *compactAt,
		}
		outer := http.NewServeMux()
		outer.Handle("/v1/shard/", cluster.NewShardHandler(svc, shardCfg))
		outer.Handle("/", srv)
		handler = outer
	}
	boot := func() error {
		if *demo {
			ds, err := demoFlights()
			if err != nil {
				return err
			}
			cfg, err := cfgFor("flights", ds.Schema())
			if err != nil {
				return err
			}
			if err := svc.AddDataset("flights", ds, cfg); err != nil {
				return err
			}
		}
		for _, spec := range datasets {
			name, ds, err := loadDataset(spec)
			if err != nil {
				return err
			}
			cfg, err := cfgFor(name, ds.Schema())
			if err != nil {
				return fmt.Errorf("dataset %s: %w", name, err)
			}
			if err := svc.AddDataset(name, ds, cfg); err != nil {
				return err
			}
		}
		for _, info := range svc.Datasets() {
			log.Printf("dataset %q: %d points, engine %s (%d bytes)",
				info.Name, info.Points, info.Engine, info.EngineBytes)
			if info.Durability != nil && info.Durability.Recovery.FromDisk {
				rec := info.Durability.Recovery
				log.Printf("dataset %q: recovered version %d (checkpoint %d + %d records, %d rows, %d torn bytes truncated) in %.1fms",
					info.Name, rec.Version, rec.CheckpointVersion, rec.RecordsReplayed, rec.RowsReplayed, rec.TruncatedBytes, rec.DurationMS)
			}
		}
		srv.markReady()
		return nil
	}
	return serve(*addr, handler, boot, svc.Close)
}

// nodeOnlyFlags are read only without -coordinator, coordinatorOnlyFlags
// only with it.
var (
	nodeOnlyFlags = []string{
		"engine", "topk", "partitions", "template", "workers", "query-timeout",
		"max-queued", "compact-threshold", "readonly", "data-dir", "fsync",
		"fsync-interval", "rearm-backoff",
	}
	coordinatorOnlyFlags = []string{
		"shard", "partitioner", "shard-timeout", "hedge", "shard-inflight", "probe-interval",
	}
)

// rejectForeignFlags fails when a flag set on the command line is one the
// chosen mode never reads, so a mistyped deployment does not start while
// silently ignoring part of its configuration.
func rejectForeignFlags(fs *flag.FlagSet, coordinator bool) error {
	foreign, verb := coordinatorOnlyFlags, "requires"
	if coordinator {
		foreign, verb = nodeOnlyFlags, "is not read with"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(foreign, f.Name) {
			err = fmt.Errorf("-%s %s -coordinator", f.Name, verb)
		}
	})
	return err
}

// coordinatorConfig gathers the -coordinator mode's flag values.
type coordinatorConfig struct {
	addr          string
	shards        []string
	partitioner   string
	datasets      []string
	demo          bool
	cacheCap      int
	cacheShards   int
	semLimit      int
	shardTimeout  time.Duration
	hedge         time.Duration
	inflight      int
	probeInterval time.Duration
	pprofAddr     string
}

// runCoordinator boots the scatter-gather tier: build the shard clients,
// partition and push every dataset, start the health/re-push loop, serve.
func runCoordinator(cfg coordinatorConfig) error {
	part, err := cluster.ParsePartitioner(cfg.partitioner)
	if err != nil {
		return err
	}
	specs := make([]cluster.ShardSpec, len(cfg.shards))
	for i, s := range cfg.shards {
		urls := strings.Split(s, "|")
		specs[i] = cluster.ShardSpec{URLs: urls}
	}
	co, err := cluster.New(specs, cluster.Options{
		Partitioner: part,
		Client: cluster.ClientOptions{
			Timeout:     cfg.shardTimeout,
			HedgeDelay:  cfg.hedge,
			MaxInflight: cfg.inflight,
		},
		CacheCapacity:          cfg.cacheCap,
		CacheShards:            cfg.cacheShards,
		SemanticCandidateLimit: cfg.semLimit,
		ProbeInterval:          cfg.probeInterval,
	})
	if err != nil {
		return err
	}
	if cfg.pprofAddr != "" {
		if err := servePprof(cfg.pprofAddr); err != nil {
			return err
		}
	}
	srv := newCoordServer(co)
	boot := func() error {
		push := func(name string, ds *data.Dataset) error {
			//lint:background listener-first boot: the initial push outlives no request and must not die with one
			if err := co.AddDataset(context.Background(), name, ds); err != nil {
				// Non-fatal: the dataset is registered and the probe loop
				// re-pushes the failed shard as soon as it answers.
				log.Printf("dataset %q: initial push incomplete: %v", name, err)
			} else {
				log.Printf("dataset %q: %d points across %d shards (%s partitioning)",
					name, ds.N(), co.Shards(), part.Name())
			}
			return nil
		}
		if cfg.demo {
			ds, err := demoFlights()
			if err != nil {
				return err
			}
			if err := push("flights", ds); err != nil {
				return err
			}
		}
		for _, spec := range cfg.datasets {
			name, ds, err := loadDataset(spec)
			if err != nil {
				return err
			}
			if err := push(name, ds); err != nil {
				return err
			}
		}
		co.Start()
		srv.markReady()
		return nil
	}
	return serve(cfg.addr, srv, boot, func() error { co.Close(); return nil })
}

// durableConfig builds one dataset's durability configuration — its own
// subdirectory under dataDir, so datasets never interleave WAL segments —
// or nil when -data-dir is unset (memory only).
func durableConfig(dataDir, name string, policy durable.Policy, interval, rearmBackoff time.Duration) *durable.Config {
	if dataDir == "" {
		return nil
	}
	return &durable.Config{
		Dir:           filepath.Join(dataDir, name),
		Fsync:         policy,
		GroupInterval: interval,
		RearmBackoff:  rearmBackoff,
	}
}

// serve runs a hardened http.Server until the listener fails or the process
// receives SIGINT/SIGTERM, then drains in-flight requests gracefully. The
// explicit read/write timeouts bound slow or stalled clients (slowloris)
// that the bare http.ListenAndServe defaults would let hold connections
// forever.
//
// boot runs concurrently with serving, after the listener is up: the boot
// step (dataset registration, durable recovery) can take a while and the
// health endpoints must answer during it. closeFn runs after requests have
// drained AND boot has finished (never concurrently with it), flushing
// durable state so a SIGTERM loses nothing acknowledged.
func serve(addr string, handler http.Handler, boot func() error, closeFn func() error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveWith(ln, handler, boot, closeFn)
}

// serveWith is serve over an already-bound listener, so tests can own the
// port and drive the full SIGTERM graceful-shutdown path in-process.
func serveWith(ln net.Listener, handler http.Handler, boot func() error, closeFn func() error) error {
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	//lint:background process lifecycle root: the serve loop's ctx is bound to SIGINT/SIGTERM, not to any caller
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("skylined listening on %s", ln.Addr())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	bootCh := make(chan error, 1)
	go func() { bootCh <- boot() }()

	// finish drains a still-running boot (so closeFn never races recovery)
	// and flushes durable state.
	finish := func() error {
		if bootCh != nil {
			<-bootCh
			bootCh = nil
		}
		return closeFn()
	}

	for {
		select {
		case err := <-errCh:
			finish()
			return err
		case err := <-bootCh:
			bootCh = nil // receiving from a nil channel blocks: case disabled
			if err != nil {
				srv.Close()
				<-errCh
				closeFn()
				return err
			}
		case <-ctx.Done():
			stop() // restore default signal behavior: a second signal kills hard
			log.Printf("skylined shutting down")
			//lint:background the drain deadline must outlive the just-canceled serve ctx
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(shutdownCtx); err != nil {
				finish()
				return fmt.Errorf("shutdown: %w", err)
			}
			if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
				finish()
				return err
			}
			if err := finish(); err != nil {
				return fmt.Errorf("flushing durable state: %w", err)
			}
			return nil
		}
	}
}

// servePprof mounts net/http/pprof on its own mux and its own listener so
// production profiles of the scan kernels can be captured without exposing
// debug endpoints on the public serving address. The address must be
// loopback-only; anything else is refused rather than silently bound.
func servePprof(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-pprof %q: %w", addr, err)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return fmt.Errorf("-pprof %q: refusing non-loopback host %q (use 127.0.0.1 or localhost)", addr, host)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-pprof %q: %w", addr, err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		log.Printf("pprof listening on %s (loopback only)", ln.Addr())
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("pprof server: %v", err)
		}
	}()
	return nil
}

// loadDataset parses one -dataset spec and loads the CSV under the schema.
func loadDataset(spec string) (string, *data.Dataset, error) {
	name, paths, ok := strings.Cut(spec, "=")
	if !ok {
		return "", nil, fmt.Errorf("-dataset %q: want name=schema.json,data.csv", spec)
	}
	schemaPath, csvPath, ok := strings.Cut(paths, ",")
	if !ok {
		return "", nil, fmt.Errorf("-dataset %q: want name=schema.json,data.csv", spec)
	}
	schemaFile, err := os.Open(schemaPath)
	if err != nil {
		return "", nil, err
	}
	defer schemaFile.Close()
	schema, err := data.ReadSchemaJSON(schemaFile)
	if err != nil {
		return "", nil, fmt.Errorf("dataset %s: %w", name, err)
	}
	csvFile, err := os.Open(csvPath)
	if err != nil {
		return "", nil, err
	}
	defer csvFile.Close()
	ds, err := data.ReadCSV(csvFile, schema)
	if err != nil {
		return "", nil, fmt.Errorf("dataset %s: %w", name, err)
	}
	return name, ds, nil
}

// demoFlights builds the shared flight-booking demo dataset: 3000 synthetic
// flights over nominal Airline and Transit attributes (fixed seed, so every
// run serves the same data examples/flights indexes).
func demoFlights() (*data.Dataset, error) {
	return gen.Flights(3000, 7)
}
