package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"prefsky/internal/data"
	"prefsky/internal/gen"
	"prefsky/internal/order"
)

// A shard slower than the per-shard timeout is unavailable: strict queries
// fail typed, lenient queries serve the flagged superset of the live shards.
func TestShardTimeout(t *testing.T) {
	ds := genDataset(t, 2000, gen.AntiCorrelated, 13)
	co, shards := testCluster(t, 3, Options{Client: ClientOptions{Timeout: 100 * time.Millisecond}})
	ctx := context.Background()
	if err := co.AddDataset(ctx, "d", ds); err != nil {
		t.Fatal(err)
	}
	slow := shards[2]
	prev := func() http.Handler { slow.mu.Lock(); defer slow.mu.Unlock(); return slow.inner }()
	slow.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // so client-side cancel is observable
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
		}
	}))
	defer slow.swap(prev)

	pref := mustPref(t, ds.Schema(), "nom0: v0<*")
	if _, err := co.Query(ctx, "d", pref, FailStrict); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("strict query with slow shard: err = %v, want ErrShardUnavailable", err)
	}

	res, err := co.Query(ctx, "d", pref, FailLenient)
	if err != nil {
		t.Fatalf("lenient query: %v", err)
	}
	if !res.Partial || len(res.Unavailable) != 1 || res.Unavailable[0] != slow.srv.URL {
		t.Fatalf("lenient result not flagged for %s: partial=%v unavailable=%v", slow.srv.URL, res.Partial, res.Unavailable)
	}
	parts, err := Split(ds, 3, HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	live := append(append([]data.Point{}, parts[0]...), parts[1]...)
	if want := oracle(t, ds.Schema(), live, pref); !reflect.DeepEqual(res.IDs, want) {
		t.Errorf("lenient result != SKY(live shards): got %d ids, want %d", len(res.IDs), len(want))
	}
}

// Malformed shard responses and protocol-version skew are never maskable:
// both policies fail with ErrShardProtocol, for single queries and for every
// member of a batch.
func TestMalformedAndSkewedShardResponses(t *testing.T) {
	ds := genDataset(t, 1000, gen.Independent, 17)
	pref := "nom0: v0<*"
	batchPrefs := []string{"nom0: v1<*", "nom0: v2<*"} // none cached by the query
	cases := []struct {
		name string
		// batchOnly: the handler breaks /v1/shard/batch only; every other
		// path is served by the healthy shard, so single queries succeed.
		batchOnly bool
		handler   http.HandlerFunc
	}{
		{"malformed-json", false, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"proto": 1, "partial": {`)) // truncated
		}},
		{"version-skew-body", false, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, QueryResponse{Proto: ProtoVersion + 1})
		}},
		{"version-skew-error", false, func(w http.ResponseWriter, r *http.Request) {
			shardError(w, http.StatusBadRequest, CodeProtoMismatch, "protocol version 99")
		}},
		{"descending-scores", false, func(w http.ResponseWriter, r *http.Request) {
			p := Partial{Scores: []float64{2, 1}}
			p.Rows.AppendPoint(&data.Point{ID: 0, Num: []float64{0, 0}, Nom: nil})
			p.Rows.AppendPoint(&data.Point{ID: 1, Num: []float64{1, 1}, Nom: nil})
			if r.URL.Path == "/v1/shard/batch" {
				var req BatchRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					shardError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
					return
				}
				resp := BatchResponse{Proto: ProtoVersion}
				for range req.Preferences {
					resp.Partials = append(resp.Partials, p)
				}
				writeJSON(w, resp)
				return
			}
			writeJSON(w, QueryResponse{Proto: ProtoVersion, Partial: p})
		}},
		{"short-batch", true, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, BatchResponse{Proto: ProtoVersion}) // no partials
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			co, shards := testCluster(t, 2, Options{})
			ctx := context.Background()
			if err := co.AddDataset(ctx, "d", ds); err != nil {
				t.Fatal(err)
			}
			bad := shards[1]
			prev := func() http.Handler { bad.mu.Lock(); defer bad.mu.Unlock(); return bad.inner }()
			h := http.Handler(tc.handler)
			if tc.batchOnly {
				h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/v1/shard/batch" {
						tc.handler(w, r)
						return
					}
					prev.ServeHTTP(w, r)
				})
			}
			bad.swap(h)
			defer bad.swap(prev)
			p := mustPref(t, ds.Schema(), pref)
			prefs := make([]*order.Preference, len(batchPrefs))
			for i, s := range batchPrefs {
				prefs[i] = mustPref(t, ds.Schema(), s)
			}
			for _, policy := range []FailPolicy{FailStrict, FailLenient} {
				_, err := co.Query(ctx, "d", p, policy)
				switch {
				case tc.batchOnly && err != nil:
					t.Errorf("policy %v: query err = %v, want nil", policy, err)
				case !tc.batchOnly && !errors.Is(err, ErrShardProtocol):
					t.Errorf("policy %v: err = %v, want ErrShardProtocol", policy, err)
				}
				for i, r := range co.Batch(ctx, "d", prefs, policy) {
					if !errors.Is(r.Err, ErrShardProtocol) {
						t.Errorf("policy %v: batch member %d err = %v, want ErrShardProtocol", policy, i, r.Err)
					}
				}
			}
		})
	}
}

// Cancellation must propagate: a canceled coordinator context frees the
// in-flight shard requests (the shard sees its request context die) and the
// query returns context.Canceled, not a shard error.
func TestCancellationPropagatesToShards(t *testing.T) {
	ds := genDataset(t, 1000, gen.Independent, 19)
	co, shards := testCluster(t, 2, Options{})
	ctx := context.Background()
	if err := co.AddDataset(ctx, "d", ds); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 2)
	released := make(chan struct{}, 2)
	block := shards[1]
	prev := func() http.Handler { block.mu.Lock(); defer block.mu.Unlock(); return block.inner }()
	block.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server only watches for client disconnect
		// (which cancels r.Context()) once the request body is consumed.
		io.Copy(io.Discard, r.Body)
		entered <- struct{}{}
		<-r.Context().Done() // released only by client-side cancellation
		released <- struct{}{}
	}))
	defer block.swap(prev)

	qctx, cancel := context.WithCancel(ctx)
	errCh := make(chan error, 1)
	go func() {
		_, err := co.Query(qctx, "d", mustPref(t, ds.Schema(), "nom0: v0<*"), FailStrict)
		errCh <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("shard never saw the scattered request")
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not return after cancel")
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("shard request context never canceled: slot leaked")
	}
}

// A slow primary with a fast replica is hedged: the query answers from the
// replica within the hedge window and the hedge counter advances.
func TestHedgedRetryToReplica(t *testing.T) {
	ds := genDataset(t, 1000, gen.Independent, 23)

	// Build one shard group whose primary stalls and whose replica is the
	// real handler.
	replica := newTestShard(t)
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-time.After(3 * time.Second):
			shardError(w, http.StatusServiceUnavailable, "down", "too slow")
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(primary.Close)

	co, err := New([]ShardSpec{{URLs: []string{primary.URL, replica.srv.URL}}}, Options{
		ProbeInterval: -1,
		Client:        ClientOptions{Timeout: 10 * time.Second, HedgeDelay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	ctx := context.Background()
	// The initial push also hedges to the replica, which installs the
	// partition there (the stalled primary never acknowledges).
	if err := co.AddDataset(ctx, "d", ds); err != nil {
		t.Fatal(err)
	}
	pref := mustPref(t, ds.Schema(), "nom0: v0<*")
	start := time.Now()
	res, err := co.Query(ctx, "d", pref, FailStrict)
	if err != nil {
		t.Fatalf("hedged query failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("hedged query took %v, want well under the primary's stall", elapsed)
	}
	if want := oracle(t, ds.Schema(), ds.Points(), pref); !reflect.DeepEqual(res.IDs, want) {
		t.Error("hedged result wrong")
	}
	h := co.Health()
	if len(h) != 1 || h[0].Hedges == 0 {
		t.Errorf("hedge counter = %+v, want > 0", h)
	}
	if h[0].Replicas != 1 {
		t.Errorf("replicas = %d, want 1", h[0].Replicas)
	}
}

// A killed shard fails strict queries typed; after restart (empty state) it
// stays unavailable until ProbeOnce re-pushes, then serves again.
func TestProbeRepushesRestartedShard(t *testing.T) {
	ds := genDataset(t, 2000, gen.AntiCorrelated, 29)
	co, shards := testCluster(t, 3, Options{})
	ctx := context.Background()
	if err := co.AddDataset(ctx, "d", ds); err != nil {
		t.Fatal(err)
	}
	pref := mustPref(t, ds.Schema(), "nom0: v1<v0<*")
	want := oracle(t, ds.Schema(), ds.Points(), pref)

	victim := shards[1]
	victim.down.Store(true)
	if _, err := co.Query(ctx, "d", pref, FailStrict); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("query against killed shard: %v, want ErrShardUnavailable", err)
	}

	// Restart: the shard answers HTTP again but holds no partitions, so it is
	// still unavailable for queries (unknown-dataset), not silently empty.
	victim.restart()
	if _, err := co.Query(ctx, "d", pref, FailStrict); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("query against restarted empty shard: %v, want ErrShardUnavailable", err)
	}

	co.ProbeOnce(ctx)
	res, err := co.Query(ctx, "d", pref, FailStrict)
	if err != nil {
		t.Fatalf("query after re-push: %v", err)
	}
	if !reflect.DeepEqual(res.IDs, want) {
		t.Error("post-repair result differs from oracle")
	}
	for _, h := range co.Health() {
		if h.State != "ok" {
			t.Errorf("shard %s state %q after repair, want ok", h.Name, h.State)
		}
	}
}

// Lenient merging of the live shards equals SKY(live points) exactly, and
// every true-skyline point on a live shard appears in it.
func TestLenientSupersetSemantics(t *testing.T) {
	ds := genDataset(t, 3000, gen.AntiCorrelated, 31)
	co, shards := testCluster(t, 3, Options{})
	ctx := context.Background()
	if err := co.AddDataset(ctx, "d", ds); err != nil {
		t.Fatal(err)
	}
	parts, err := Split(ds, 3, HashPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	shards[0].down.Store(true)
	defer shards[0].down.Store(false)

	for _, spec := range testPrefs {
		pref := mustPref(t, ds.Schema(), spec)
		res, err := co.Query(ctx, "d", pref, FailLenient)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if !res.Partial || len(res.Unavailable) != 1 {
			t.Fatalf("%q: not flagged partial: %+v", spec, res)
		}
		live := append(append([]data.Point{}, parts[1]...), parts[2]...)
		wantLive := oracle(t, ds.Schema(), live, pref)
		if !reflect.DeepEqual(res.IDs, wantLive) {
			t.Errorf("%q: lenient result != SKY(live): got %d want %d", spec, len(res.IDs), len(wantLive))
		}
		// Superset check against the full-data truth.
		truth := oracle(t, ds.Schema(), ds.Points(), pref)
		liveIDs := make(map[data.PointID]bool, len(live))
		for _, p := range live {
			liveIDs[p.ID] = true
		}
		got := make(map[data.PointID]bool, len(res.IDs))
		for _, id := range res.IDs {
			got[id] = true
		}
		for _, id := range truth {
			if liveIDs[id] && !got[id] {
				t.Errorf("%q: live true-skyline point %d missing from lenient result", spec, id)
			}
		}
	}

	// All shards down: even lenient fails.
	shards[1].down.Store(true)
	shards[2].down.Store(true)
	defer shards[1].down.Store(false)
	defer shards[2].down.Store(false)
	if _, err := co.Query(ctx, "d", mustPref(t, ds.Schema(), ""), FailLenient); !errors.Is(err, ErrShardUnavailable) {
		t.Errorf("all-down lenient query: %v, want ErrShardUnavailable", err)
	}
}

// Partial or flagged results must never enter the cache: after the shard
// rejoins, the same preference re-scatters and serves the full skyline.
func TestPartialResultsAreNotCached(t *testing.T) {
	ds := genDataset(t, 2000, gen.Independent, 37)
	co, shards := testCluster(t, 2, Options{})
	ctx := context.Background()
	if err := co.AddDataset(ctx, "d", ds); err != nil {
		t.Fatal(err)
	}
	pref := mustPref(t, ds.Schema(), "nom0: v0<*")
	shards[0].down.Store(true)
	partial, err := co.Query(ctx, "d", pref, FailLenient)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Partial {
		t.Fatal("expected a partial result")
	}
	shards[0].down.Store(false)
	full, err := co.Query(ctx, "d", pref, FailStrict)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Error("full query flagged partial")
	}
	if full.Outcome.CacheHit() {
		t.Error("partial result was cached and replayed")
	}
	if want := oracle(t, ds.Schema(), ds.Points(), pref); !reflect.DeepEqual(full.IDs, want) {
		t.Error("post-rejoin result differs from oracle")
	}
}
