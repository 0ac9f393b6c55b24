package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"prefsky/internal/data"
	"prefsky/internal/gen"
	"prefsky/internal/ipotree"
	"prefsky/internal/order"
	"prefsky/internal/service"
	"prefsky/internal/zipf"
)

// Data common to every workload: the paper's Table 4 defaults, and the
// template every user preference refines.
const (
	numDims      = 3
	nomDims      = 2
	cardinality  = 20
	theta        = 1.0
	templateSpec = "nom0: v0<*; nom1: v0<*"
	datasetName  = "d"
	streamLen    = 1 << 16 // requests generated per run; the phases wrap around past it

	// worldSeed generates what a deployment holds whoever calls it: the
	// dataset, and the preferences that are popular with its users (the
	// chains of refine-hot, the hot pool of mixed-durable). -seed draws the
	// traffic: which user asks what and when, the preferences of cold-scan
	// and cluster-scatter, the points inserted. Drawing the dataset from
	// -seed too moved every metric by its skyline's size, 10% between seeds
	// on cold-scan, where two runs of one seed differ by under 1%; that
	// spread would hide any change smaller than it.
	worldSeed = 1
)

// workload is one traffic mix against one deployment shape. rate is the
// open phase's offered load, frozen from the closed-phase capacity of the
// reference run (README.md) so that latency is read at a load the servers
// sustain.
type workload struct {
	name string
	why  string
	kind gen.Kind
	n    int
	rate float64 // open-phase requests per second

	node    nodeConfig // the single node; with cluster, what each shard and the coordinator share
	cluster bool       // two shards behind a coordinator instead of one node

	build   func(r *run) error // preferences and request stream, from the seed
	preload func(r *run) error // untimed cache fill before the closed warm-up
	quiesce func(r *run) error // checks after the measured phases
}

// nodeConfig is how a workload configures skylined. The same values configure
// the in-process service the traced run replays against, so the two cannot
// drift apart.
type nodeConfig struct {
	engine           string
	topK             int
	template         bool // pass the common template to the engine
	cache            int  // -cache; 0 leaves the server's default of 4096 entries
	durable          bool // -data-dir with -fsync interval
	compactThreshold int  // -compact-threshold; 0 leaves the server's default of 4096 rows
}

func (c nodeConfig) args(r *run) []string {
	args := []string{"-engine", c.engine}
	if c.topK > 0 {
		args = append(args, "-topk", strconv.Itoa(c.topK))
	}
	if c.template {
		args = append(args, "-template", templateSpec)
	}
	if c.cache != 0 {
		args = append(args, "-cache", strconv.Itoa(c.cache))
	}
	if c.durable {
		args = append(args, "-data-dir", r.dataDir, "-fsync", "interval")
	}
	if c.compactThreshold != 0 {
		args = append(args, "-compact-threshold", strconv.Itoa(c.compactThreshold))
	}
	return args
}

// service is the in-process equivalent of args, without durability: the
// traced run times internal/durable on its own directory.
func (c nodeConfig) service(r *run) (service.Options, service.EngineConfig) {
	cfg := service.EngineConfig{
		Kind:             c.engine,
		Tree:             ipotree.Options{TopK: c.topK},
		CompactThreshold: c.compactThreshold,
	}
	if c.template {
		cfg.Template = r.template
	}
	return service.Options{CacheCapacity: c.cache}, cfg
}

var workloads = []*workload{
	{
		name: "cold-scan",
		why:  "2048 distinct order-3 preferences, result cache off: every request pays project, presort and scan in internal/flat",
		kind: gen.Independent, n: 100_000, rate: 110,
		node: nodeConfig{engine: "sfsd", cache: -1},
		build: func(r *run) error {
			if err := r.addOrder3(r.rng, 2048); err != nil {
				return err
			}
			r.uniformQueries()
			return nil
		},
	},
	{
		name: "refine-hot",
		why:  "Zipfian refinement sessions over a pool larger than the result cache: p50 is a cache hit, p99 a miss served by the lattice, IPO-tree or Adaptive SFS",
		kind: gen.AntiCorrelated, n: 100_000, rate: 45,
		node:    nodeConfig{engine: "hybrid", topK: 10, template: true, cache: refineCache},
		build:   buildRefineHot,
		preload: preloadRefineHot,
	},
	{
		name: "mixed-durable",
		why:  "95% reads over 4 hot preferences, 5% inserts and deletes on a WAL-backed store: every write invalidates results and grows the delta",
		kind: gen.Independent, n: 100_000, rate: 100,
		node:    nodeConfig{engine: "sfsd", durable: true, compactThreshold: mixedCompactThreshold},
		build:   buildMixed,
		preload: preloadMixed,
		quiesce: quiesceMixed,
	},
	{
		name: "cluster-scatter",
		why:  "a coordinator scatter-gathers over two shard processes on anti-correlated data: large partials make the merge result-size-bound",
		kind: gen.AntiCorrelated, n: 5_000, rate: 55,
		node: nodeConfig{engine: "sfsd", cache: -1}, cluster: true,
		build: func(r *run) error {
			if err := r.addOrder3(r.rng, 512); err != nil {
				return err
			}
			r.uniformQueries()
			return nil
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Sizes of refine-hot, frozen so the steady-state exact-hit ratio sits
// between 0.7 and 0.9 (see README): the cache holds a quarter of the
// preferences the chains can ask for.
const (
	refineChains  = 1024
	refineCache   = 256
	refinePreload = 128 // most popular preferences cached before the warm-up
)

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
)

// request is one entry of the generated stream: a query names a preference,
// an insert names a generated point; a delete picks its target when sent
// (the oldest point the run inserted and has not deleted).
type request struct {
	kind opKind
	idx  int32
}

// prefEntry is one distinct preference a workload sends.
type prefEntry struct {
	pref *order.Preference
	spec string
	body []byte         // the /v1/query request body
	want []data.PointID // expected answer on the seed data; mixed-durable uses the write model instead
}

// insertEntry is one generated point and its /v1/insert request body.
type insertEntry struct {
	point data.Point
	body  []byte
}

// generate makes the dataset and writes the CSV and schema the servers load.
func (r *run) generate() error {
	n := r.wl.n
	if r.p.n > 0 {
		n = r.p.n
	}
	ds, err := gen.Dataset(gen.Config{
		N: n, NumDims: numDims, NomDims: nomDims, Cardinality: cardinality,
		Theta: theta, Kind: r.wl.kind, Seed: worldSeed,
	})
	if err != nil {
		return err
	}
	r.ds, r.schema = ds, ds.Schema()
	if r.template, err = data.ParsePreference(r.schema, templateSpec); err != nil {
		return err
	}
	r.schemaPath = filepath.Join(r.dir, "schema.json")
	r.csvPath = filepath.Join(r.dir, "data.csv")
	var buf bytes.Buffer
	if err := data.WriteSchemaJSON(&buf, r.schema); err != nil {
		return err
	}
	if err := os.WriteFile(r.schemaPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	buf.Reset()
	if err := data.WriteCSV(&buf, ds); err != nil {
		return err
	}
	return os.WriteFile(r.csvPath, buf.Bytes(), 0o644)
}

func (r *run) datasetFlag() string {
	return fmt.Sprintf("%s=%s,%s", datasetName, r.schemaPath, r.csvPath)
}

// addPref registers a preference once per canonical form and returns its
// index.
func (r *run) addPref(p *order.Preference) (int32, error) {
	key := p.Canonical().CacheKey()
	if i, ok := r.prefIndex[key]; ok {
		return i, nil
	}
	spec := data.FormatPreference(r.schema, p)
	body := mustJSON(map[string]string{"dataset": datasetName, "preference": spec})
	i := int32(len(r.prefs))
	r.prefs = append(r.prefs, &prefEntry{pref: p, spec: spec, body: body})
	r.prefIndex[key] = i
	return i, nil
}

// addOrder3 draws Zipfian order-3 refinements of the template until the pool
// holds count distinct preferences.
func (r *run) addOrder3(rng *rand.Rand, count int) error {
	cards := r.schema.Cardinalities()
	for len(r.prefs) < count {
		qs, err := gen.Queries(cards, r.template, gen.QueryConfig{
			Order: 3, Count: count, Mode: gen.Zipfian, Theta: theta, Seed: rng.Int63(),
		})
		if err != nil {
			return err
		}
		for _, q := range qs {
			if len(r.prefs) == count {
				break
			}
			if _, err := r.addPref(q); err != nil {
				return err
			}
		}
	}
	return nil
}

// uniformQueries fills the stream with queries drawn uniformly from the pool.
func (r *run) uniformQueries() {
	r.stream = make([]request, streamLen)
	for i := range r.stream {
		r.stream[i] = request{opQuery, int32(r.rng.Intn(len(r.prefs)))}
	}
}

// start spawns the workload's servers and returns once they are ready. A
// durable node gets a fresh data directory, so every set-up is a first open.
func (r *run) start() (*fleet, error) {
	if r.wl.cluster {
		return startCluster(r)
	}
	if r.wl.node.durable {
		r.dataDir = filepath.Join(r.dir, fmt.Sprintf("wal-%d", r.starts))
	}
	return r.startNode(r.wl.node.args(r)...)
}

// startNode spawns a single skylined hosting the generated dataset and waits
// for /readyz.
func (r *run) startNode(args ...string) (*fleet, error) {
	t0 := time.Now()
	p, err := spawn(r.ctx, r.env.bin, r.dir, fmt.Sprintf("node-%d", r.starts),
		append([]string{"-dataset", r.datasetFlag()}, args...)...)
	if err != nil {
		return nil, err
	}
	f := &fleet{procs: []*proc{p}, url: p.url}
	if err := p.waitReady(r.ctx, r.ctl, "/readyz"); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	f.setup = time.Since(t0)
	return f, nil
}

// startCluster spawns two shards and, once they listen, a coordinator that
// partitions the dataset by hash and pushes one partition to each.
func startCluster(r *run) (*fleet, error) {
	t0 := time.Now()
	f := &fleet{}
	fail := func(err error) (*fleet, error) { return nil, errors.Join(err, f.stop()) }
	for i := 0; i < 2; i++ {
		p, err := spawn(r.ctx, r.env.bin, r.dir, fmt.Sprintf("shard%d-%d", i, r.starts),
			append([]string{"-shard-mode"}, r.wl.node.args(r)...)...)
		if err != nil {
			return fail(err)
		}
		f.procs = append(f.procs, p)
	}
	args := []string{"-coordinator", "-partitioner", "hash", "-cache", strconv.Itoa(r.wl.node.cache), "-dataset", r.datasetFlag()}
	for _, p := range f.procs {
		// The coordinator pushes at boot; a shard not yet listening would be
		// repaired only by the probe loop, seconds later.
		if err := p.waitReady(r.ctx, r.ctl, "/healthz"); err != nil {
			return fail(err)
		}
		args = append(args, "-shard", p.url)
	}
	co, err := spawn(r.ctx, r.env.bin, r.dir, fmt.Sprintf("coordinator-%d", r.starts), args...)
	if err != nil {
		return fail(err)
	}
	f.procs = append(f.procs, co)
	f.url = co.url
	if err := co.waitReady(r.ctx, r.ctl, "/readyz"); err != nil {
		return fail(err)
	}
	f.setup = time.Since(t0)
	return f, nil
}

// buildRefineHot makes refinement sessions: a chain is an order-3 preference
// with its order-2 prefix and the template (order 1), asked in that order;
// chains are drawn Zipfian, so a few are hot and most of the pool is cold.
func buildRefineHot(r *run) error {
	cards := r.schema.Cardinalities()
	seen := make(map[int32]bool)
	var chains [][3]int32
	for len(chains) < refineChains {
		qs, err := gen.Queries(cards, r.template, gen.QueryConfig{
			Order: 3, Count: refineChains, Mode: gen.Zipfian, Theta: theta, Seed: r.world.Int63(),
		})
		if err != nil {
			return err
		}
		for _, q3 := range qs {
			if len(chains) == refineChains {
				break
			}
			dims := make([]*order.Implicit, q3.NomDims())
			for d := range dims {
				dims[d] = q3.Dim(d).Prefix(2)
			}
			q2, err := order.NewPreference(dims...)
			if err != nil {
				return err
			}
			var chain [3]int32
			for i, p := range []*order.Preference{r.template, q2, q3} {
				if chain[i], err = r.addPref(p); err != nil {
					return err
				}
			}
			if !seen[chain[2]] {
				seen[chain[2]] = true
				chains = append(chains, chain)
			}
		}
	}
	r.chains = chains
	zd, err := zipf.New(len(chains), theta)
	if err != nil {
		return err
	}
	cdf := make([]float64, len(chains))
	for k := range cdf {
		cdf[k] = zd.P(k)
		if k > 0 {
			cdf[k] += cdf[k-1]
		}
	}
	// Sessions follow the Zipfian popularity by stratified sampling: the
	// golden-ratio sequence from a seeded start, through the inverse CDF.
	// Every second of traffic then holds the same share of popular and
	// unpopular chains; with independent draws the share of misses, each 40
	// times a hit, moved capacity by 9% between seeds.
	const phi = 0.6180339887498949
	r.stream = make([]request, 0, streamLen)
	for u := r.rng.Float64(); len(r.stream) < streamLen; u = math.Mod(u+phi, 1) {
		k, _ := slices.BinarySearch(cdf, u)
		for _, pi := range chains[min(k, len(chains)-1)] {
			r.stream = append(r.stream, request{opQuery, pi})
		}
	}
	r.stream = r.stream[:streamLen]
	return nil
}

// preloaded lists the most popular preferences of refine-hot, the ones cached
// before the warm-up (chain rank is popularity rank under the Zipfian draw).
func (r *run) preloaded() []int32 {
	var out []int32
	added := make(map[int32]bool)
	for _, chain := range r.chains {
		for _, pi := range chain {
			if !added[pi] && len(out) < refinePreload {
				added[pi] = true
				out = append(out, pi)
			}
		}
	}
	return out
}

// preloadRefineHot fills the result cache with them through /v1/batch.
func preloadRefineHot(r *run) error {
	var specs []string
	for _, pi := range r.preloaded() {
		specs = append(specs, r.prefs[pi].spec)
	}
	for len(specs) > 0 {
		n := min(len(specs), 64)
		if err := r.batch(specs[:n]); err != nil {
			return err
		}
		specs = specs[n:]
	}
	return nil
}

// Sizes of mixed-durable. The compaction threshold is lowered from the
// server's 4096 rows so that a run of a few hundred writes completes several
// compaction and checkpoint cycles.
const (
	mixedHotPrefs         = 4
	mixedWriteEvery       = 20 // 95% reads, 2.5% inserts, 2.5% deletes
	mixedPreInserted      = 64
	mixedCompactThreshold = 64
)

// buildMixed makes the read/write stream. A delete follows the insert before
// it, and the warm-up inserts mixedPreInserted points first, so a delete
// always finds a point the run inserted even when two connections reorder
// neighbours.
func buildMixed(r *run) error {
	if err := r.addOrder3(r.world, mixedHotPrefs); err != nil {
		return err
	}
	// One request in mixedWriteEvery is a write, at a seeded offset, insert and
	// delete in turn; the rest are reads of a hot preference drawn uniformly.
	// Evenly placed writes keep the share of reads that follow an
	// invalidation the same in every second of the run.
	r.stream = make([]request, streamLen)
	inserts := int32(0)
	offset := r.rng.Intn(mixedWriteEvery)
	for i := range r.stream {
		switch {
		case i%mixedWriteEvery != offset:
			r.stream[i] = request{opQuery, int32(r.rng.Intn(len(r.prefs)))}
		case i/mixedWriteEvery%2 == 0:
			r.stream[i] = request{opInsert, inserts}
			inserts++
		default:
			r.stream[i] = request{kind: opDelete}
		}
	}
	// Points to insert come from the same generator under another seed.
	extra, err := gen.Dataset(gen.Config{
		N: int(inserts) + mixedPreInserted, NumDims: numDims, NomDims: nomDims, Cardinality: cardinality,
		Theta: theta, Kind: r.wl.kind, Seed: r.p.seed ^ 0x5eed,
	})
	if err != nil {
		return err
	}
	r.inserts = make([]insertEntry, extra.N())
	for i, p := range extra.Points() {
		numeric := make(map[string]float64, numDims)
		for d, a := range r.schema.Numeric {
			numeric[a.Name] = p.Num[d]
		}
		nominal := make(map[string]string, nomDims)
		for d, dom := range r.schema.Nominal {
			nominal[dom.Name()] = dom.ValueName(p.Nom[d])
		}
		r.inserts[i] = insertEntry{point: p, body: mustJSON(map[string]any{
			"dataset": datasetName,
			"points":  []map[string]any{{"numeric": numeric, "nominal": nominal}},
		})}
	}
	r.model = &writeModel{}
	return nil
}

// preloadMixed inserts the points the first deletes will target. They use
// the generated points past the stream's own inserts.
func preloadMixed(r *run) error {
	first := len(r.inserts) - mixedPreInserted
	for i := first; i < len(r.inserts); i++ {
		if out := r.do(request{opInsert, int32(i)}); !out.ok {
			return fmt.Errorf("mixed-durable: warm-up insert %d failed: %s", i-first, out.detail)
		}
	}
	return nil
}
