package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"sync/atomic"

	"prefsky/internal/cluster"
	"prefsky/internal/data"
	"prefsky/internal/order"
	"prefsky/internal/service"
)

// Request hardening bounds: a request body larger than maxBodyBytes, a batch
// naming more than maxBatchPreferences preferences, or a mutation batch with
// more than maxBatchMutations members is rejected before any engine work
// happens.
const (
	maxBodyBytes        = 1 << 20 // 1 MiB
	maxBatchPreferences = 256
	maxBatchMutations   = 1024
)

// server is the HTTP front end over the service facade. ready distinguishes
// liveness from readiness: the process serves /healthz from the moment the
// listener is up, but /readyz answers 503 until boot-time dataset
// registration — durable recovery and WAL replay included — has finished, so
// a load balancer never routes traffic to a half-recovered node.
type server struct {
	svc   *service.Service
	mux   *http.ServeMux
	ready atomic.Bool
}

// newServer routes the v1 API.
func newServer(svc *service.Service) *server {
	s := &server{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/insert", s.handleInsert)
	mux.HandleFunc("POST /v1/delete", s.handleDelete)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// markReady flips /readyz to 200 once boot has finished.
func (s *server) markReady() { s.ready.Store(true) }

// errorResponse is the JSON error body every handler returns: a
// human-readable message plus a machine-readable code (see README for the
// full status-code contract).
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Machine-readable error codes carried in errorResponse.Code.
const (
	codeBadRequest     = "bad-request"
	codeUnknownDataset = "unknown-dataset"
	codeUnknownPoint   = "unknown-point"
	codeReadOnly       = "read-only"
	codeTooLarge       = "too-large"
	codeDegraded       = "degraded"
	codeOverloaded     = "overloaded"
	codeTimeout        = "timeout"
	codeCanceled       = "canceled"
	// Coordinator-mode codes: a shard (or enough of its replicas) did not
	// answer — retryable — vs. a shard answered wrongly (malformed partial,
	// protocol version skew) — an operator problem surfaced as 502.
	codeShardUnavailable = "shard_unavailable"
	codeShardProtocol    = "shard-protocol"
)

// writeJSON writes a compact JSON response — the hot query path skips
// indentation. Encode errors after the header is written cannot reach the
// client, so they are logged (typically the client went away mid-stream).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("skylined: encoding response: %v", err)
	}
}

// writeJSONIndent is writeJSON with human-friendly indentation, reserved for
// the low-traffic introspection endpoints (/v1/stats).
func writeJSONIndent(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("skylined: encoding response: %v", err)
	}
}

// decodeJSON reads a bounded request body into v, rejecting unknown fields
// so a typo'd field name fails loudly instead of silently defaulting.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// classify maps an error to its HTTP status and machine-readable code — the
// single source of truth for the status-code contract documented in README.
func classify(err error) (status int, code string) {
	var maxBytesErr *http.MaxBytesError
	switch {
	case errors.Is(err, service.ErrUnknownDataset):
		return http.StatusNotFound, codeUnknownDataset
	case errors.Is(err, service.ErrUnknownPoint):
		// Deleting (or rendering) a point id that was never assigned or is
		// already gone.
		return http.StatusNotFound, codeUnknownPoint
	case errors.Is(err, service.ErrNotMaintainable):
		// The dataset is explicitly read-only.
		return http.StatusConflict, codeReadOnly
	case errors.Is(err, service.ErrDegraded):
		// A disk fault moved the dataset to degraded read-only; the re-arm
		// loop is probing, so the write is retryable.
		return http.StatusServiceUnavailable, codeDegraded
	case errors.Is(err, service.ErrOverloaded):
		// The admission queue is full; the query was shed without blocking.
		return http.StatusServiceUnavailable, codeOverloaded
	case errors.Is(err, cluster.ErrShardUnavailable):
		// Strict-policy query against a down shard; Retry-After rides along —
		// the probe loop re-pushes as soon as the shard rejoins.
		return http.StatusServiceUnavailable, codeShardUnavailable
	case errors.Is(err, cluster.ErrShardProtocol):
		// Malformed shard response or coordinator/shard version skew.
		return http.StatusBadGateway, codeShardProtocol
	case errors.As(err, &maxBytesErr):
		return http.StatusRequestEntityTooLarge, codeTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		// The -query-timeout deadline fired before the engine finished.
		return http.StatusGatewayTimeout, codeTimeout
	case errors.Is(err, context.Canceled):
		// The client disconnected; 499 (nginx convention) for the access log.
		return 499, codeCanceled
	default:
		// Preference parse/validation problems are client errors.
		return http.StatusBadRequest, codeBadRequest
	}
}

// retryAfter suggests the client backoff for retryable 503s: sheds clear as
// soon as a worker frees (retry immediately-ish), degraded datasets wait on
// the re-arm loop's backoff.
func retryAfter(code string) string {
	if code == codeDegraded {
		return "5"
	}
	return "1"
}

func writeError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfter(code))
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
		return
	}
	// Degraded datasets still serve reads, so the node stays ready; the list
	// tells operators (and smarter balancers) which datasets refuse writes.
	body := map[string]any{"status": "ready"}
	var degraded []string
	for _, info := range s.svc.Datasets() {
		if info.Health != "" && info.Health != "ok" {
			degraded = append(degraded, info.Name)
		}
	}
	if len(degraded) > 0 {
		body["degraded"] = degraded
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.svc.Datasets()})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSONIndent(w, http.StatusOK, s.svc.Stats())
}

type queryRequest struct {
	Dataset    string `json:"dataset"`
	Preference string `json:"preference"`
	// IncludePoints adds the matching points' attribute values to the
	// response alongside their ids.
	IncludePoints bool `json:"includePoints,omitempty"`
}

type pointJSON struct {
	ID      data.PointID       `json:"id"`
	Numeric map[string]float64 `json:"numeric"`
	Nominal map[string]string  `json:"nominal"`
}

type queryResponse struct {
	Dataset    string         `json:"dataset"`
	Preference string         `json:"preference"`
	Canonical  string         `json:"canonical"`
	IDs        []data.PointID `json:"ids"`
	Count      int            `json:"count"`
	Cached     bool           `json:"cached"`
	// Semantic marks results derived from a cached coarser preference's
	// skyline (the refinement-lattice path) rather than a full engine scan.
	Semantic bool        `json:"semantic,omitempty"`
	Points   []pointJSON `json:"points,omitempty"`
}

// parsePref resolves the dataset's schema and parses the preference string
// against it.
func (s *server) parsePref(dataset, spec string) (*data.Schema, *order.Preference, error) {
	schema, err := s.svc.Schema(dataset)
	if err != nil {
		return nil, nil, err
	}
	pref, err := data.ParsePreference(schema, spec)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing preference %q: %w", spec, err)
	}
	return schema, pref, nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	schema, pref, err := s.parsePref(req.Dataset, req.Preference)
	if err != nil {
		writeError(w, err)
		return
	}
	// The request context rides the whole query path: a disconnected client
	// releases its worker-pool slot and aborts partitioned scans early.
	ids, outcome, err := s.svc.Query(r.Context(), req.Dataset, pref)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := queryResponse{
		Dataset:    req.Dataset,
		Preference: data.FormatPreference(schema, pref),
		Canonical:  data.FormatPreference(schema, pref.Canonical()),
		IDs:        ids,
		Count:      len(ids),
		Cached:     outcome.CacheHit(),
		Semantic:   outcome.Semantic(),
	}
	if req.IncludePoints {
		resp.Points = make([]pointJSON, 0, len(ids))
		for _, id := range ids {
			p, err := s.svc.Point(req.Dataset, id)
			if err != nil {
				// The point was deleted between query and render; skip it.
				continue
			}
			resp.Points = append(resp.Points, renderPoint(schema, id, p))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// renderPoint converts a point to named attribute values, un-negating
// HigherIsBetter numerics (stored negated so smaller is always better).
func renderPoint(schema *data.Schema, id data.PointID, p data.Point) pointJSON {
	out := pointJSON{
		ID:      id,
		Numeric: make(map[string]float64, len(schema.Numeric)),
		Nominal: make(map[string]string, len(schema.Nominal)),
	}
	for i, a := range schema.Numeric {
		v := p.Num[i]
		if a.HigherIsBetter {
			v = -v
		}
		out.Numeric[a.Name] = v
	}
	for i, d := range schema.Nominal {
		out.Nominal[d.Name()] = d.ValueName(p.Nom[i])
	}
	return out
}

type batchRequest struct {
	Dataset     string   `json:"dataset"`
	Preferences []string `json:"preferences"`
}

type batchMember struct {
	Preference string         `json:"preference"`
	IDs        []data.PointID `json:"ids,omitempty"`
	Count      int            `json:"count"`
	Cached     bool           `json:"cached"`
	Semantic   bool           `json:"semantic,omitempty"`
	Error      string         `json:"error,omitempty"`
	// Code is the member error's machine-readable code (same vocabulary as
	// top-level errorResponse.Code), empty on success.
	Code string `json:"code,omitempty"`
}

type batchResponse struct {
	Dataset string        `json:"dataset"`
	Results []batchMember `json:"results"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Preferences) > maxBatchPreferences {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("batch of %d preferences exceeds the limit of %d",
				len(req.Preferences), maxBatchPreferences),
			Code: codeTooLarge,
		})
		return
	}
	schema, err := s.svc.Schema(req.Dataset)
	if err != nil {
		writeError(w, err)
		return
	}
	// Parse everything up front; parse failures are positional errors, and
	// the parsed members run as one pool batch.
	prefs := make([]*order.Preference, len(req.Preferences))
	members := make([]batchMember, len(req.Preferences))
	for i, spec := range req.Preferences {
		members[i].Preference = spec
		p, err := data.ParsePreference(schema, spec)
		if err != nil {
			members[i].Error = err.Error()
			members[i].Code = codeBadRequest
			continue
		}
		prefs[i] = p
		members[i].Preference = data.FormatPreference(schema, p)
	}
	runnable := make([]*order.Preference, 0, len(prefs))
	runIdx := make([]int, 0, len(prefs))
	for i, p := range prefs {
		if p != nil {
			runnable = append(runnable, p)
			runIdx = append(runIdx, i)
		}
	}
	for j, res := range s.svc.Batch(r.Context(), req.Dataset, runnable) {
		m := &members[runIdx[j]]
		if res.Err != nil {
			m.Error = res.Err.Error()
			_, m.Code = classify(res.Err)
			continue
		}
		m.IDs = res.IDs
		m.Count = len(res.IDs)
		m.Cached = res.Outcome.CacheHit()
		m.Semantic = res.Outcome.Semantic()
	}
	writeJSON(w, http.StatusOK, batchResponse{Dataset: req.Dataset, Results: members})
}

// pointInput is one point of a batch insert, keyed by attribute name like the
// pointJSON render (HigherIsBetter numerics arrive un-negated and are negated
// on parse, mirroring CSV load).
type pointInput struct {
	Numeric map[string]float64 `json:"numeric"`
	Nominal map[string]string  `json:"nominal"`
}

type insertRequest struct {
	Dataset string       `json:"dataset"`
	Points  []pointInput `json:"points"`
}

type insertResponse struct {
	Dataset string         `json:"dataset"`
	IDs     []data.PointID `json:"ids"`
	Count   int            `json:"count"`
	// Applied counts the points inserted; it trails len(points) only on a
	// partial failure, which also carries an error status.
	Applied int `json:"applied"`
}

// parsePoint validates one incoming point against the schema, producing the
// in-memory representation (numerics negated where HigherIsBetter, nominal
// labels resolved to dense value ids).
func parsePoint(schema *data.Schema, in pointInput) (service.PointInput, error) {
	out := service.PointInput{
		Num: make([]float64, len(schema.Numeric)),
		Nom: make([]order.Value, len(schema.Nominal)),
	}
	for i, a := range schema.Numeric {
		v, ok := in.Numeric[a.Name]
		if !ok {
			return out, fmt.Errorf("missing numeric attribute %q", a.Name)
		}
		// Valid JSON cannot spell NaN/±Inf (no literals, and out-of-range
		// numbers like 1e999 fail to decode), so over HTTP this is defense
		// in depth; it guards other callers of parsePoint and names the
		// offending attribute, which the store's own rejection does not.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("non-finite value %v for numeric attribute %q", v, a.Name)
		}
		if a.HigherIsBetter {
			v = -v
		}
		out.Num[i] = v
	}
	if len(in.Numeric) != len(schema.Numeric) {
		return out, fmt.Errorf("%d numeric attributes, schema has %d", len(in.Numeric), len(schema.Numeric))
	}
	for i, d := range schema.Nominal {
		name, ok := in.Nominal[d.Name()]
		if !ok {
			return out, fmt.Errorf("missing nominal attribute %q", d.Name())
		}
		v, ok := d.Lookup(name)
		if !ok {
			return out, fmt.Errorf("unknown value %q for attribute %q", name, d.Name())
		}
		out.Nom[i] = v
	}
	if len(in.Nominal) != len(schema.Nominal) {
		return out, fmt.Errorf("%d nominal attributes, schema has %d", len(in.Nominal), len(schema.Nominal))
	}
	return out, nil
}

func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Points) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "no points to insert", Code: codeBadRequest})
		return
	}
	if len(req.Points) > maxBatchMutations {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("batch of %d points exceeds the limit of %d", len(req.Points), maxBatchMutations),
			Code:  codeTooLarge,
		})
		return
	}
	schema, err := s.svc.Schema(req.Dataset)
	if err != nil {
		writeError(w, err)
		return
	}
	// Parse the whole batch before mutating anything, so a malformed member
	// rejects the request instead of leaving it half-applied.
	pts := make([]service.PointInput, len(req.Points))
	for i, in := range req.Points {
		if pts[i], err = parsePoint(schema, in); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("point %d: %v", i, err), Code: codeBadRequest})
			return
		}
	}
	ids, err := s.svc.InsertBatch(req.Dataset, pts)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, insertResponse{
		Dataset: req.Dataset,
		IDs:     ids,
		Count:   len(ids),
		Applied: len(ids),
	})
}

type deleteRequest struct {
	Dataset string         `json:"dataset"`
	IDs     []data.PointID `json:"ids"`
}

type deleteResponse struct {
	Dataset string `json:"dataset"`
	Applied int    `json:"applied"`
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req deleteRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.IDs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "no ids to delete", Code: codeBadRequest})
		return
	}
	if len(req.IDs) > maxBatchMutations {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("batch of %d ids exceeds the limit of %d", len(req.IDs), maxBatchMutations),
			Code:  codeTooLarge,
		})
		return
	}
	applied, err := s.svc.DeleteBatch(req.Dataset, req.IDs)
	if err != nil {
		// Unknown ids map to 404; the error text carries how many of the
		// batch landed before the failing member.
		writeError(w, fmt.Errorf("%w (applied %d/%d)", err, applied, len(req.IDs)))
		return
	}
	writeJSON(w, http.StatusOK, deleteResponse{Dataset: req.Dataset, Applied: applied})
}
