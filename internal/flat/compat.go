package flat

// GridMode exists only because the benchmark module (benchmark/) compiles
// against it: Snapshot.SkylineBatch still takes one and ignores it. The
// package has no cell grid; scans are always dense.
type GridMode int8

// GridAuto is the GridMode value the benchmark module passes to
// Snapshot.SkylineBatch.
const GridAuto GridMode = 0

// GridStats exists only because the benchmark module (benchmark/) decodes
// /v1/stats into it. No server reports it any more, so it always decodes as
// zero.
type GridStats struct {
	RowsPruned uint64 `json:"rows_pruned"`
}
