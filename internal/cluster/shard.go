package cluster

import (
	"bytes"
	stdcmp "cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"net/http"
	"slices"
	"strings"
	"sync"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/order"
	"prefsky/internal/service"
)

// maxLoadBytes bounds a partition push; partitions are whole datasets, so
// the limit is far above the 1 MiB query-body bound skylined enforces.
const maxLoadBytes = 256 << 20

// ShardHandler serves the shard side of the protocol over an existing
// service.Service: partitions install as ordinary (read-only) datasets, so
// queries reuse the whole serving stack — engines, versioned store, result
// cache, worker pool — and only the id space needs translation. A partition's
// rows arrive with dataset-global ids, but service registration (data.New)
// reassigns ids to partition-local indices; the handler keeps the pushed id
// vector and maps local results back to global ids on the way out.
//
// Mount it under /v1/shard/ (cmd/skylined's -shard-mode does).
type ShardHandler struct {
	svc *service.Service
	cfg service.EngineConfig
	mux *http.ServeMux

	mu       sync.RWMutex
	datasets map[string]*shardDataset
}

// shardDataset is the shard-side record of one installed partition.
type shardDataset struct {
	gen       uint64
	globalIDs []data.PointID // partition-local id (row index) → global id
}

// NewShardHandler builds the shard endpoints over svc. cfg chooses the
// engine partitions are installed behind; ReadOnly is forced — a partition's
// global-id vector is fixed at push time, so shard-local mutations would
// desynchronize it (cluster maintenance goes through a coordinator re-push).
func NewShardHandler(svc *service.Service, cfg service.EngineConfig) *ShardHandler {
	cfg.ReadOnly = true
	cfg.Durable = nil
	h := &ShardHandler{svc: svc, cfg: cfg, datasets: make(map[string]*shardDataset)}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shard/load", h.handleLoad)
	mux.HandleFunc("/v1/shard/info", h.handleInfo)
	mux.HandleFunc("/v1/shard/query", h.handleQuery)
	mux.HandleFunc("/v1/shard/batch", h.handleBatch)
	h.mux = mux
	return h
}

// ServeHTTP implements http.Handler.
func (h *ShardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func shardError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// decodeShard decodes a JSON body with a size bound, rejecting unknown
// fields so a version-skewed coordinator fails loudly instead of silently
// dropping fields.
func decodeShard(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if r.Method != http.MethodPost {
		shardError(w, http.StatusMethodNotAllowed, CodeBadRequest, "POST required")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		shardError(w, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// checkProto rejects a request whose protocol version differs from ours.
func checkProto(w http.ResponseWriter, proto int) bool {
	if proto != ProtoVersion {
		shardError(w, http.StatusBadRequest, CodeProtoMismatch,
			"protocol version %d, shard speaks %d", proto, ProtoVersion)
		return false
	}
	return true
}

// handleLoad installs (or replaces) one dataset partition.
func (h *ShardHandler) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if !decodeShard(w, r, maxLoadBytes, &req) || !checkProto(w, req.Proto) {
		return
	}
	if req.Dataset == "" {
		shardError(w, http.StatusBadRequest, CodeBadRequest, "empty dataset name")
		return
	}
	schema, err := data.ReadSchemaJSON(bytes.NewReader(req.Schema))
	if err != nil {
		shardError(w, http.StatusBadRequest, CodeBadRequest, "decoding schema: %v", err)
		return
	}
	m, l := schema.NumDims(), schema.NomDims()
	n := len(req.Rows.IDs)
	if len(req.Rows.Num) != n*m || len(req.Rows.Nom) != n*l {
		shardError(w, http.StatusBadRequest, CodeBadRequest,
			"row arrays disagree: %d ids, %d numeric (want %d), %d nominal (want %d)",
			n, len(req.Rows.Num), n*m, len(req.Rows.Nom), n*l)
		return
	}
	// The pushed global ids survive here; data.New reassigns the points' own
	// ids to partition-local indices, which is exactly the local↔global
	// correspondence the query path translates through.
	globalIDs := append([]data.PointID(nil), req.Rows.IDs...)
	ds, err := data.New(schema, req.Rows.PointsOf(m, l))
	if err != nil {
		shardError(w, http.StatusBadRequest, CodeBadRequest, "building partition: %v", err)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.svc.RemoveDataset(req.Dataset)
	if err := h.svc.AddDataset(req.Dataset, ds, h.cfg); err != nil {
		shardError(w, http.StatusInternalServerError, CodeBadRequest, "registering partition: %v", err)
		return
	}
	h.datasets[req.Dataset] = &shardDataset{gen: req.Gen, globalIDs: globalIDs}
	writeJSON(w, LoadResponse{Proto: ProtoVersion, Gen: req.Gen, Points: n})
}

// handleInfo reports the installed partitions: the coordinator's health
// probe compares this against its registry to find shards needing a
// re-push.
func (h *ShardHandler) handleInfo(w http.ResponseWriter, r *http.Request) {
	h.mu.RLock()
	out := InfoResponse{Proto: ProtoVersion, Datasets: make([]InfoDataset, 0, len(h.datasets))}
	for name, sd := range h.datasets {
		out.Datasets = append(out.Datasets, InfoDataset{Name: name, Gen: sd.gen, Points: len(sd.globalIDs)})
	}
	h.mu.RUnlock()
	slices.SortFunc(out.Datasets, func(a, b InfoDataset) int { return strings.Compare(a.Name, b.Name) })
	writeJSON(w, out)
}

// partition resolves a dataset + generation to the installed record.
func (h *ShardHandler) partition(w http.ResponseWriter, dataset string, gen uint64) (*shardDataset, bool) {
	h.mu.RLock()
	sd, ok := h.datasets[dataset]
	h.mu.RUnlock()
	if !ok {
		shardError(w, http.StatusNotFound, CodeUnknownDataset, "shard does not host %q", dataset)
		return nil, false
	}
	if sd.gen != gen {
		shardError(w, http.StatusConflict, CodeStaleGen,
			"dataset %q at generation %d, query names %d", dataset, sd.gen, gen)
		return nil, false
	}
	return sd, true
}

// renderPartial materializes a local skyline as a wire partial: global ids +
// points + scores, ascending in f under cmp.
func (h *ShardHandler) renderPartial(dataset string, sd *shardDataset, cmp *dominance.Comparator, ids []data.PointID) (Partial, error) {
	type row struct {
		p     data.Point
		score float64
	}
	rows := make([]row, len(ids))
	for i, id := range ids {
		p, err := h.svc.Point(dataset, id)
		if err != nil {
			return Partial{}, err
		}
		rows[i] = row{p: p, score: cmp.Score(&p)}
	}
	// Ascending f is the merge-filter's pruning contract; ties break on the
	// (local) id for determinism.
	slices.SortFunc(rows, func(a, b row) int {
		if c := stdcmp.Compare(a.score, b.score); c != 0 {
			return c
		}
		return stdcmp.Compare(a.p.ID, b.p.ID)
	})
	out := Partial{Scores: make([]float64, 0, len(rows))}
	for i := range rows {
		p := rows[i].p
		if int(p.ID) >= len(sd.globalIDs) {
			return Partial{}, fmt.Errorf("cluster: local id %d outside partition of %d rows", p.ID, len(sd.globalIDs))
		}
		p.ID = sd.globalIDs[p.ID]
		out.Rows.AppendPoint(&p)
		out.Scores = append(out.Scores, rows[i].score)
	}
	return out, nil
}

// localSkyline answers one preference over the installed partition and
// renders the partial.
func (h *ShardHandler) localSkyline(ctx context.Context, dataset string, sd *shardDataset, pref *order.Preference) (Partial, error) {
	schema, err := h.svc.Schema(dataset)
	if err != nil {
		return Partial{}, err
	}
	canonical := pref.Canonical()
	cmp, err := dominance.NewComparator(schema, canonical)
	if err != nil {
		return Partial{}, err
	}
	ids, _, err := h.svc.Query(ctx, dataset, canonical)
	if err != nil {
		return Partial{}, err
	}
	return h.renderPartial(dataset, sd, cmp, ids)
}

// shardQueryError maps a query failure onto the shard error envelope.
func shardQueryError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, service.ErrUnknownDataset):
		status, code = http.StatusNotFound, CodeUnknownDataset
	case errors.Is(err, service.ErrOverloaded):
		status, code = http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		status, code = 499, "canceled"
	}
	shardError(w, status, code, "%v", err)
}

// handleQuery answers one preference with the partition's local skyline.
func (h *ShardHandler) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeShard(w, r, 1<<20, &req) || !checkProto(w, req.Proto) {
		return
	}
	sd, ok := h.partition(w, req.Dataset, req.Gen)
	if !ok {
		return
	}
	schema, err := h.svc.Schema(req.Dataset)
	if err != nil {
		shardQueryError(w, err)
		return
	}
	pref, err := data.ParsePreference(schema, req.Preference)
	if err != nil {
		shardError(w, http.StatusBadRequest, CodeBadRequest, "parsing preference: %v", err)
		return
	}
	partial, err := h.localSkyline(r.Context(), req.Dataset, sd, pref)
	if err != nil {
		shardQueryError(w, err)
		return
	}
	writeJSON(w, QueryResponse{Proto: ProtoVersion, Gen: req.Gen, Partial: partial})
}

// handleBatch answers many preferences in one round trip. Members fail
// independently; request-level failures (unknown dataset, stale gen) fail
// the whole call.
func (h *ShardHandler) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeShard(w, r, 4<<20, &req) || !checkProto(w, req.Proto) {
		return
	}
	sd, ok := h.partition(w, req.Dataset, req.Gen)
	if !ok {
		return
	}
	schema, err := h.svc.Schema(req.Dataset)
	if err != nil {
		shardQueryError(w, err)
		return
	}
	out := BatchResponse{Proto: ProtoVersion, Gen: req.Gen, Partials: make([]Partial, len(req.Preferences))}
	prefs := make([]*order.Preference, len(req.Preferences))
	for i, s := range req.Preferences {
		pref, err := data.ParsePreference(schema, s)
		if err != nil {
			out.Partials[i] = Partial{Error: err.Error(), Code: CodeBadRequest}
			continue
		}
		prefs[i] = pref.Canonical()
	}
	// One service batch call keeps the shard's vectorized shared-scan path
	// (flat.SkylineBatch) and canonical dedup in play; nil members (parse
	// failures above) are skipped by the service and answered here already.
	results := h.svc.Batch(r.Context(), req.Dataset, prefs)
	for i, res := range results {
		if prefs[i] == nil {
			continue
		}
		if res.Err != nil {
			code := "internal"
			if errors.Is(res.Err, service.ErrOverloaded) {
				code = "overloaded"
			}
			out.Partials[i] = Partial{Error: res.Err.Error(), Code: code}
			continue
		}
		cmp, err := dominance.NewComparator(schema, prefs[i])
		if err != nil {
			out.Partials[i] = Partial{Error: err.Error(), Code: CodeBadRequest}
			continue
		}
		partial, err := h.renderPartial(req.Dataset, sd, cmp, res.IDs)
		if err != nil {
			out.Partials[i] = Partial{Error: err.Error(), Code: "internal"}
			continue
		}
		out.Partials[i] = partial
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
