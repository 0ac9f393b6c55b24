// Package prefsky is a library for skyline querying with variable user
// preferences on nominal attributes, implementing Wong, Fu, Pei, Ho, Wong and
// Liu, "Efficient Skyline Querying with Variable User Preferences on Nominal
// Attributes" (VLDB 2008 / arXiv:0710.2604).
//
// A dataset mixes numeric attributes, which have a fixed order (lower price is
// always better), with nominal attributes, which do not: different users
// prefer different hotel groups, airlines or realty styles. Each user states
// an implicit preference per nominal attribute — "Tulips ≺ Mozilla ≺ *", her
// ordered favorite values followed by everything else — and the skyline (the
// set of non-dominated points) must be computed for that preference online.
//
// Two engines answer such queries after preprocessing against a template (the
// orders all users share, possibly empty):
//
//   - IPOTree (§3 of the paper) materializes skyline results for every
//     first-order preference "v ≺ *" per dimension and combines them with the
//     merging property (Theorem 2). Fastest queries, heaviest preprocessing.
//   - AdaptiveSFS (§4) keeps SKY(template) presorted by a monotone scoring
//     function and, per query, re-sorts only the points whose values were
//     re-ranked. Light preprocessing, progressive results, incremental
//     maintenance under inserts and deletes.
//
// SFSD is the from-scratch baseline, and Hybrid routes popular-value queries
// to a top-K-restricted tree with an AdaptiveSFS fallback (§5.3).
//
// ParallelSFS is the multi-core counterpart of SFSD: the dataset is split
// into P blocks, block skylines are computed concurrently and merge-filtered
// (local dominance implies global candidacy, so cross-checking survivors
// against other blocks' local skylines suffices). ParallelHybrid keeps the
// tree's instant answers and runs the partitioned scan on fallback. Every
// engine query takes a context.Context: cancellation and deadlines abort
// partitioned scans between blocks.
//
// # Quick start
//
//	schema, _ := prefsky.NewSchema(
//	    []prefsky.NumericAttr{{Name: "Price"}, {Name: "Class", HigherIsBetter: true}},
//	    []*prefsky.Domain{hotelGroups},
//	)
//	ds, _ := prefsky.NewDataset(schema, points)
//	engine, _ := prefsky.NewIPOTree(ds, schema.EmptyPreference(), prefsky.TreeOptions{})
//	pref, _ := prefsky.ParsePreference(schema, "Hotel-group: T<M<*")
//	ids, _ := engine.Skyline(ctx, pref)
//
// # Serving
//
// For concurrent traffic, Service hosts many named datasets behind a
// configurable engine each, a sharded LRU result cache keyed by canonical
// preference (Preference.CacheKey: equivalent queries share entries, and an
// exact miss falls back to the refinement lattice — a cached coarser
// preference's skyline bounds the refined one by Theorem 1), and a bounded
// worker pool:
//
//	svc := prefsky.NewService(prefsky.ServiceOptions{})
//	_ = svc.AddDataset("hotels", ds, prefsky.EngineConfig{Kind: "sfsa"})
//	ids, outcome, _ := svc.Query(ctx, "hotels", pref)
//
// cmd/skylined wires a Service behind JSON endpoints (POST /v1/query,
// POST /v1/batch, GET /v1/datasets, GET /v1/stats, GET /healthz); see
// README.md for a curl session.
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package prefsky

import (
	"prefsky/internal/adaptive"
	"prefsky/internal/core"
	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/flat"
	"prefsky/internal/gen"
	"prefsky/internal/ipotree"
	"prefsky/internal/nursery"
	"prefsky/internal/order"
	"prefsky/internal/service"
)

// Model types re-exported from the internal packages. Aliases keep the public
// surface in one import while the implementation stays internal.
type (
	// Value is a nominal value id within its Domain.
	Value = order.Value
	// Domain is the value set of one nominal attribute.
	Domain = order.Domain
	// Implicit is a per-attribute implicit preference "v1 ≺ … ≺ vx ≺ *".
	Implicit = order.Implicit
	// Preference assigns an implicit preference to every nominal dimension.
	Preference = order.Preference
	// PartialOrder is an explicit strict partial order over a domain.
	PartialOrder = order.PartialOrder

	// Point is one tuple of numeric and nominal attribute values.
	Point = data.Point
	// PointID identifies a point within its dataset.
	PointID = data.PointID
	// NumericAttr describes a numeric attribute.
	NumericAttr = data.NumericAttr
	// Schema describes a dataset's attributes.
	Schema = data.Schema
	// Dataset is an immutable point collection.
	Dataset = data.Dataset

	// Engine answers implicit-preference skyline queries.
	Engine = core.Engine
	// EngineOptions configures engine construction for NewEngineByName.
	EngineOptions = core.Options
	// TreeOptions configures IPO-tree construction.
	TreeOptions = ipotree.Options
	// TreeStats reports IPO-tree construction measurements.
	TreeStats = ipotree.Stats
	// TreeAdvisor recommends which values to materialize from an observed
	// query workload (§3.1).
	TreeAdvisor = ipotree.Advisor
	// MaintainableEngine is the concrete Adaptive SFS engine with progressive
	// iteration and incremental maintenance.
	MaintainableEngine = adaptive.Engine
	// Maintainer applies §4.3 incremental maintenance (Insert/Delete) to an
	// engine; every engine this package builds supports it.
	Maintainer = core.Maintainer
	// VersionedStore is the snapshot-isolated columnar store every engine
	// reads: queries grab an immutable snapshot lock-free while writers
	// publish new versions.
	VersionedStore = flat.Store
	// StoreSnapshot is one immutable version of a VersionedStore.
	StoreSnapshot = flat.Snapshot
	// StoreStats reports a store's snapshot shape and maintenance counters.
	StoreStats = flat.StoreStats
	// Comparator evaluates dominance under a fixed preference.
	Comparator = dominance.Comparator

	// Service is the concurrent query layer behind cmd/skylined: registry +
	// result cache + bounded worker pool.
	Service = service.Service
	// ServiceOptions configures a Service.
	ServiceOptions = service.Options
	// ServiceStats is the service-wide counter snapshot.
	ServiceStats = service.Stats
	// EngineConfig selects and configures the engine a Service builds for a
	// dataset.
	EngineConfig = service.EngineConfig
	// DatasetInfo is a read-only snapshot of one hosted dataset.
	DatasetInfo = service.DatasetInfo
	// EngineRegistry hosts named datasets behind per-dataset engines.
	EngineRegistry = service.Registry
	// ResultCache is the sharded LRU keyed by canonical preference.
	ResultCache = service.Cache
	// CacheStats reports result-cache counters.
	CacheStats = service.CacheStats
	// CachedAnswer is a result-cache entry: ascending ids, the store version
	// they reflect and the id watermark a patch scans from.
	CachedAnswer = service.Answer
	// QueryResult is one outcome of a Service batch execution.
	QueryResult = service.QueryResult
	// QueryOutcome classifies how a Service query was served: full engine
	// execution, exact cache hit, or semantic (refinement-lattice) hit.
	QueryOutcome = service.Outcome
)

// QueryOutcome values.
const (
	// OutcomeEngine marks a full engine execution (cold scan or tree query).
	OutcomeEngine = service.OutcomeEngine
	// OutcomeExact marks an exact result-cache hit.
	OutcomeExact = service.OutcomeExact
	// OutcomeSemantic marks an exact-key miss served from a cached coarser
	// preference's skyline (Theorem 1 at query time).
	OutcomeSemantic = service.OutcomeSemantic
)

// Constructors and helpers re-exported for the public API.
var (
	// NewDomain builds a named nominal domain from value names.
	NewDomain = order.NewDomain
	// NewImplicit builds an implicit preference over a domain cardinality.
	NewImplicit = order.NewImplicit
	// NewPreference builds a preference from per-dimension implicit orders.
	NewPreference = order.NewPreference

	// NewSchema validates and builds a schema.
	NewSchema = data.NewSchema
	// NewDataset validates points against a schema.
	NewDataset = data.New
	// ParsePreference parses "Attr: a<b<*; Other: c<*" against a schema.
	ParsePreference = data.ParsePreference
	// FormatPreference renders a preference with attribute and value names.
	FormatPreference = data.FormatPreference
	// ReadCSV loads a dataset from CSV under a schema.
	ReadCSV = data.ReadCSV
	// WriteCSV writes a dataset as CSV.
	WriteCSV = data.WriteCSV
	// ReadSchemaJSON parses a JSON schema description.
	ReadSchemaJSON = data.ReadSchemaJSON
	// WriteSchemaJSON renders a schema as JSON.
	WriteSchemaJSON = data.WriteSchemaJSON

	// NewIPOTree builds the IPO-Tree engine (§3). Its tree answers until the
	// data changes; then a scan answers until compaction rebuilds the tree.
	// A preference naming an unmaterialized value is an error.
	NewIPOTree = core.NewIPOTree
	// NewAdaptiveSFS builds the Adaptive SFS engine (§4).
	NewAdaptiveSFS = core.NewAdaptiveSFS
	// NewSFSD wraps a dataset as the no-preprocessing baseline.
	NewSFSD = core.NewSFSD
	// NewHybrid builds the §5.3 hybrid engine: the IPO-tree answers, and
	// Adaptive SFS answers unmaterialized values and changed data.
	NewHybrid = core.NewHybrid
	// NewParallelSFS builds the partitioned multi-core SFS-D counterpart.
	NewParallelSFS = core.NewParallelSFS
	// NewParallelHybrid builds the hybrid whose fallback is the partitioned
	// scan instead of Adaptive SFS.
	NewParallelHybrid = core.NewParallelHybrid
	// NewMaintainable builds the concrete Adaptive SFS engine, exposing
	// progressive iteration (QueryIter) and Insert/Delete maintenance.
	NewMaintainable = adaptive.New
	// NewEngineByName builds an engine from its configuration name
	// ("ipo", "sfsa", "sfsd", "hybrid", "parallel-sfs", "parallel-hybrid").
	NewEngineByName = core.NewByName
	// EngineKinds lists the names NewEngineByName accepts.
	EngineKinds = core.Kinds
	// MaintainableOf returns the engine's maintenance interface (§4.3) when
	// it supports Insert/Delete, or nil. Every engine this package builds
	// qualifies.
	MaintainableOf = core.Maintainable
	// StoreOf returns the versioned columnar store an engine reads, or nil
	// for an engine that reads none.
	StoreOf = core.StoreOf

	// NewService builds the concurrent query service hosting many named
	// datasets behind a canonical-preference result cache.
	NewService = service.New
	// NewEngineRegistry builds a bare dataset registry.
	NewEngineRegistry = service.NewRegistry
	// NewResultCache builds a bare sharded LRU result cache.
	NewResultCache = service.NewCache

	// NewComparator builds a dominance comparator for a preference.
	NewComparator = dominance.NewComparator
	// NewTreeAdvisor creates a workload advisor for the given cardinalities.
	NewTreeAdvisor = ipotree.NewAdvisor

	// NurseryDataset regenerates the UCI Nursery data set of §5.2.
	NurseryDataset = nursery.Dataset
	// GenerateDataset builds a synthetic dataset (§5.1 workloads).
	GenerateDataset = gen.Dataset
	// FlightsDataset generates the flight-booking demo dataset shared by
	// examples/flights and cmd/skylined -demo.
	FlightsDataset = gen.Flights
	// GenerateQueries builds a random implicit-preference workload.
	GenerateQueries = gen.Queries
	// FrequentTemplate builds the §5 default template (most frequent value
	// preferred per nominal dimension).
	FrequentTemplate = gen.FrequentTemplate

	// Table1 and Table3 are the paper's running-example datasets.
	Table1 = data.Table1
	Table3 = data.Table3
)

// GenConfig configures synthetic dataset generation.
type GenConfig = gen.Config

// QueryConfig configures query workload generation.
type QueryConfig = gen.QueryConfig

// Dataset generation kinds (numeric correlation structure).
const (
	Independent    = gen.Independent
	Correlated     = gen.Correlated
	AntiCorrelated = gen.AntiCorrelated
)

// Query workload value modes.
const (
	UniformValues = gen.Uniform
	ZipfianValues = gen.Zipfian
	TopKValues    = gen.TopK
)
