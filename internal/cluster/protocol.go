// Package cluster is the distributed serving tier: one coordinator process
// scatter-gathers skyline queries across S skylined shard processes, each
// hosting one partition of a dataset.
//
// The execution model is the divide-and-conquer argument internal/parallel
// proves in-process, stretched over the network. Every shard computes the
// local skyline of its partition under the query's canonical preference and
// streams it back ascending in the §4.1 monotone score f — the "score
// prefix". Because all shards score under the same canonical preference, the
// scores are globally comparable, so the coordinator merge-filters the
// partials with the same score-pruned window internal/parallel uses: a
// candidate's cross-shard dominance scan stops at the first remote point
// whose score reaches the candidate's own (p ≺ q ⇒ f(p) < f(q), so nothing
// past that point can dominate it).
//
// Soundness of serving the merged result rests on local dominance implying
// global candidacy: a point dominated within its own shard is dominated
// globally, so the union of the shard-local skylines is a superset of the
// global skyline, and checking each survivor against the other shards' local
// skylines (transitivity) filters it exactly. The same fact gives the
// lenient partial-failure mode its meaning: merging the partials of the
// shards that answered yields exactly SKY(live data) — a flagged superset of
// the true skyline restricted to live points, with the slack being points
// dominated only by rows on the unreachable shards.
package cluster

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"prefsky/internal/data"
)

// The columnar arrays travel as base64-packed little-endian binary inside
// the JSON envelope rather than as JSON number arrays: an anti-correlated
// partial carries thousands of skyline points, and decimal float
// formatting/parsing dominated the scatter-gather path end to end (it
// erased the multi-shard speedup at N=400k). Packing is a memcpy-rate
// transform on both sides.

// F64Col is a []float64 that marshals as packed base64.
type F64Col []float64

// MarshalJSON implements json.Marshaler.
func (c F64Col) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 8*len(c))
	for i, v := range c {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return json.Marshal(base64.StdEncoding.EncodeToString(buf))
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *F64Col) UnmarshalJSON(b []byte) error {
	raw, err := unpackCol(b, 8)
	if err != nil {
		return err
	}
	out := make(F64Col, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	*c = out
	return nil
}

// I32Col is a []int32 that marshals as packed base64; IDCol and ValCol name
// its point-id and nominal-value views (data.PointID and order.Value are both
// int32 aliases).
type I32Col []int32

type (
	// IDCol is a packed column of data.PointID.
	IDCol = I32Col
	// ValCol is a packed column of order.Value.
	ValCol = I32Col
)

// MarshalJSON implements json.Marshaler.
func (c I32Col) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 4*len(c))
	for i, v := range c {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return json.Marshal(base64.StdEncoding.EncodeToString(buf))
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *I32Col) UnmarshalJSON(b []byte) error {
	raw, err := unpackCol(b, 4)
	if err != nil {
		return err
	}
	out := make(I32Col, len(raw)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	*c = out
	return nil
}

// unpackCol decodes a base64 JSON string and checks element alignment.
func unpackCol(b []byte, width int) ([]byte, error) {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(raw)%width != 0 {
		return nil, fmt.Errorf("cluster: packed column of %d bytes is not a multiple of %d", len(raw), width)
	}
	return raw, nil
}

// ProtoVersion is the shard wire-protocol version. A shard whose version
// differs from the coordinator's answers with a protocol error, which the
// coordinator maps to a typed 502 (version skew is an operator error — a
// mixed-version fleet — not a transient failure worth retrying).
const ProtoVersion = 1

// Rows is the columnar wire form of a point set: n points under a schema
// with m numeric and l nominal dimensions flatten to IDs[n], Num[n*m]
// row-major and Nom[n*l] row-major. IDs carry dataset-global point ids — a
// shard hosts a partition, but results must name points of the whole
// dataset.
type Rows struct {
	IDs IDCol  `json:"ids"`
	Num F64Col `json:"num"`
	Nom ValCol `json:"nom"`
}

// PointsOf reassembles the columnar rows into points whose Num/Nom slices
// alias the wire arrays.
func (w *Rows) PointsOf(m, l int) []data.Point {
	pts := make([]data.Point, len(w.IDs))
	for i, id := range w.IDs {
		pts[i] = data.Point{
			ID:  id,
			Num: w.Num[i*m : (i+1)*m : (i+1)*m],
			Nom: w.Nom[i*l : (i+1)*l : (i+1)*l],
		}
	}
	return pts
}

// AppendPoint flattens one point onto the wire arrays.
func (w *Rows) AppendPoint(p *data.Point) {
	w.IDs = append(w.IDs, p.ID)
	w.Num = append(w.Num, p.Num...)
	w.Nom = append(w.Nom, p.Nom...)
}

// LoadRequest installs one dataset partition on a shard (POST
// /v1/shard/load). Gen is the coordinator's generation counter for the
// dataset: it tags every later query, so a shard restarted with stale or
// missing state answers 409 until the coordinator re-pushes the partition.
type LoadRequest struct {
	Proto   int             `json:"proto"`
	Dataset string          `json:"dataset"`
	Gen     uint64          `json:"gen"`
	Schema  json.RawMessage `json:"schema"`
	Rows    Rows            `json:"rows"`
}

// LoadResponse acknowledges an installed partition.
type LoadResponse struct {
	Proto  int    `json:"proto"`
	Gen    uint64 `json:"gen"`
	Points int    `json:"points"`
}

// QueryRequest asks a shard for the local skyline of its partition under a
// canonical preference (POST /v1/shard/query). Preference is the
// data.FormatPreference rendering, parsed back against the shard's identical
// schema.
type QueryRequest struct {
	Proto      int    `json:"proto"`
	Dataset    string `json:"dataset"`
	Gen        uint64 `json:"gen"`
	Preference string `json:"preference"`
}

// Partial is one shard-local skyline: the partition's skyline points in
// ascending f order with their scores — the prefix the coordinator's
// merge-filter prunes on. Rows and Scores are parallel.
type Partial struct {
	Rows   Rows   `json:"rows"`
	Scores F64Col `json:"scores"`
	// Error/Code report a per-member failure in batch responses; both empty
	// on success.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// QueryResponse carries one partial skyline back.
type QueryResponse struct {
	Proto   int     `json:"proto"`
	Gen     uint64  `json:"gen"`
	Partial Partial `json:"partial"`
}

// BatchRequest asks for local skylines of many preferences in one round
// trip (POST /v1/shard/batch), feeding the shard's vectorized batch path.
type BatchRequest struct {
	Proto       int      `json:"proto"`
	Dataset     string   `json:"dataset"`
	Gen         uint64   `json:"gen"`
	Preferences []string `json:"preferences"`
}

// BatchResponse carries the positional partials; each member fails
// independently through its Partial's Error/Code.
type BatchResponse struct {
	Proto    int       `json:"proto"`
	Gen      uint64    `json:"gen"`
	Partials []Partial `json:"partials"`
}

// InfoDataset describes one partition a shard hosts: the health-probe unit
// the coordinator compares against its own registry to detect shards that
// restarted (missing dataset, stale gen) and need a re-push.
type InfoDataset struct {
	Name   string `json:"name"`
	Gen    uint64 `json:"gen"`
	Points int    `json:"points"`
}

// InfoResponse answers GET /v1/shard/info.
type InfoResponse struct {
	Proto    int           `json:"proto"`
	Datasets []InfoDataset `json:"datasets"`
}

// errorBody mirrors skylined's error envelope so shard errors decode
// uniformly.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Shard-side error codes the coordinator dispatches on.
const (
	// CodeStaleGen: the query named a generation the shard does not hold —
	// it restarted or missed a re-push; the coordinator treats the shard as
	// unavailable and schedules a re-push.
	CodeStaleGen = "stale-gen"
	// CodeUnknownDataset: the shard does not host the dataset at all.
	CodeUnknownDataset = "unknown-dataset"
	// CodeProtoMismatch: coordinator and shard disagree on ProtoVersion.
	CodeProtoMismatch = "proto-mismatch"
	// CodeBadRequest: malformed shard request.
	CodeBadRequest = "bad-request"
)
