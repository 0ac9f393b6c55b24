package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Typed failure classes the coordinator maps to HTTP statuses.
var (
	// ErrShardUnavailable: the shard could not serve — connection refused,
	// per-shard timeout, overload, or a restarted shard awaiting a re-push.
	// Transient: strict queries fail with it (503 + Retry-After upstream),
	// lenient queries drop the shard and flag the superset.
	ErrShardUnavailable = errors.New("cluster: shard unavailable")
	// ErrShardProtocol: the shard answered outside the protocol — malformed
	// body, unexpected status, or a ProtoVersion mismatch (a mixed-version
	// fleet). Not transient and not maskable by a lenient policy: the
	// coordinator maps it to 502.
	ErrShardProtocol = errors.New("cluster: shard protocol error")
)

// ShardSpec names one shard: a primary URL plus optional replicas holding
// the same partition, tried on failure and raced on the hedge delay.
type ShardSpec struct {
	URLs []string
}

// ClientOptions tunes the per-shard HTTP client.
type ClientOptions struct {
	// Timeout bounds each attempt against one URL (not the whole hedged
	// call); 0 means DefaultShardTimeout.
	Timeout time.Duration
	// HedgeDelay starts a racing attempt against a replica when the primary
	// has not answered within the delay; 0 disables hedging (replicas are
	// still tried sequentially on failure). Requires a replica to hedge to.
	HedgeDelay time.Duration
	// MaxInflight bounds concurrent requests per shard; 0 means
	// DefaultMaxInflight, negative means unbounded.
	MaxInflight int
}

// Defaults for ClientOptions zero values.
const (
	DefaultShardTimeout = 5 * time.Second
	DefaultMaxInflight  = 64
)

// shardClient issues protocol calls to one shard group over a shared pooled
// transport: persistent keep-alive connections (HTTP/2 when the transport
// negotiates it), a bounded in-flight semaphore, per-attempt timeouts, and
// hedged retry against replicas.
type shardClient struct {
	urls     []string // primary first
	hc       *http.Client
	timeout  time.Duration
	hedge    time.Duration
	inflight chan struct{} // nil: unbounded

	hedges   atomic.Uint64
	retries  atomic.Uint64
	failures atomic.Uint64

	mu      sync.Mutex
	state   string // ok | degraded | unreachable
	lastErr string
}

// newTransport builds the coordinator's shared pooled transport: keep-alives
// on, generous idle pools per shard host, HTTP/2 attempted where the
// connection supports it.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	t.IdleConnTimeout = 90 * time.Second
	t.ForceAttemptHTTP2 = true
	return t
}

func newShardClient(spec ShardSpec, hc *http.Client, opts ClientOptions) (*shardClient, error) {
	if len(spec.URLs) == 0 || spec.URLs[0] == "" {
		return nil, fmt.Errorf("cluster: shard with no URL")
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DefaultShardTimeout
	}
	c := &shardClient{
		urls:    spec.URLs,
		hc:      hc,
		timeout: timeout,
		hedge:   opts.HedgeDelay,
		state:   "ok",
	}
	switch {
	case opts.MaxInflight == 0:
		c.inflight = make(chan struct{}, DefaultMaxInflight)
	case opts.MaxInflight > 0:
		c.inflight = make(chan struct{}, opts.MaxInflight)
	}
	return c, nil
}

// name returns the shard's display identity: its primary URL.
func (c *shardClient) name() string { return c.urls[0] }

// setHealth records the probe loop's last verdict.
func (c *shardClient) setHealth(state, lastErr string) {
	c.mu.Lock()
	c.state, c.lastErr = state, lastErr
	c.mu.Unlock()
}

func (c *shardClient) health() (state, lastErr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state, c.lastErr
}

// noteFailure records a failed call for /v1/stats without waiting for the
// next probe.
func (c *shardClient) noteFailure(err error) {
	c.failures.Add(1)
	c.mu.Lock()
	c.lastErr = err.Error()
	c.mu.Unlock()
}

// attemptResult is one URL attempt's outcome.
type attemptResult struct {
	err error
}

// attempt runs one POST against one URL, decoding into out on success.
// Classification: transport errors, timeouts and 5xx/404/409 are
// ErrShardUnavailable; undecodable bodies, protocol-version mismatches and
// other unexpected statuses are ErrShardProtocol.
func (c *shardClient) attempt(ctx context.Context, url, path string, payload []byte, out any, checkProto func(any) int) error {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrShardProtocol, url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		// Differentiate the caller's cancellation from the attempt deadline:
		// a canceled parent context must surface as such, not as shard
		// unavailability.
		if parent := context.Cause(ctx); parent != nil && ctx.Err() != nil && errors.Is(parent, context.Canceled) {
			return parent
		}
		return fmt.Errorf("%w: %s: %v", ErrShardUnavailable, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxLoadBytes))
	if err != nil {
		return fmt.Errorf("%w: %s: reading response: %v", ErrShardUnavailable, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.Unmarshal(body, &eb)
		switch {
		case eb.Code == CodeProtoMismatch:
			return fmt.Errorf("%w: %s: version skew: %s", ErrShardProtocol, url, eb.Error)
		case resp.StatusCode == http.StatusNotFound, resp.StatusCode == http.StatusConflict,
			resp.StatusCode >= 500:
			// Missing dataset / stale generation / shard-side failure: the
			// shard cannot serve this partition right now; the probe loop
			// re-pushes it.
			return fmt.Errorf("%w: %s: %s (%s)", ErrShardUnavailable, url, firstNonEmpty(eb.Error, resp.Status), eb.Code)
		default:
			return fmt.Errorf("%w: %s: unexpected status %s (%s): %s", ErrShardProtocol, url, resp.Status, eb.Code, eb.Error)
		}
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%w: %s: undecodable response: %v", ErrShardProtocol, url, err)
	}
	if checkProto != nil {
		if got := checkProto(out); got != ProtoVersion {
			return fmt.Errorf("%w: %s: version skew: shard speaks protocol %d, coordinator %d", ErrShardProtocol, url, got, ProtoVersion)
		}
	}
	return nil
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// call POSTs a protocol request with bounded in-flight, per-attempt timeout,
// sequential failover across replicas and — when configured — a hedged
// second attempt racing the slow primary. The first success wins; losing
// attempts are canceled through the shared context. outFor must return a
// fresh decode target per attempt (concurrent attempts must not share one);
// the winning attempt's index is returned.
func (c *shardClient) call(ctx context.Context, path string, in any, outFor func() any, checkProto func(any) int) (any, error) {
	if c.inflight != nil {
		select {
		case c.inflight <- struct{}{}:
			defer func() { <-c.inflight }()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	payload, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("%w: encoding request: %v", ErrShardProtocol, err)
	}
	// All attempts derive from one cancelable context: when a winner returns,
	// the deferred cancel reels in every loser (and a canceled caller reels
	// in everything in flight).
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type done struct {
		out any
		err error
	}
	results := make(chan done, len(c.urls))
	launched := 0
	launch := func() bool {
		if launched >= len(c.urls) {
			return false
		}
		url := c.urls[launched]
		launched++
		out := outFor()
		go func() {
			err := c.attempt(ctx, url, path, payload, out, checkProto)
			results <- done{out: out, err: err}
		}()
		return true
	}
	launch()

	var hedgeC <-chan time.Time
	if c.hedge > 0 && len(c.urls) > 1 {
		t := time.NewTimer(c.hedge)
		defer t.Stop()
		hedgeC = t.C
	}
	pending := 1
	var firstErr error
	for pending > 0 {
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				return r.out, nil
			}
			if errors.Is(r.err, context.Canceled) && ctx.Err() != nil {
				// Our own cancel tearing down a loser, or the caller gone.
				if firstErr == nil {
					firstErr = r.err
				}
				continue
			}
			if errors.Is(r.err, ErrShardProtocol) {
				// Version skew / malformed answers are deterministic; a
				// replica on the same binary would answer identically.
				c.noteFailure(r.err)
				return nil, r.err
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 && launch() {
				c.retries.Add(1)
				pending++
			}
		case <-hedgeC:
			hedgeC = nil
			if launch() {
				c.hedges.Add(1)
				pending++
			}
		case <-ctx.Done():
			// The caller canceled: in-flight attempts observe the shared
			// context and unwind; don't wait for them.
			return nil, ctx.Err()
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("%w: %s: no attempt ran", ErrShardUnavailable, c.name())
	}
	if errors.Is(firstErr, ErrShardUnavailable) {
		c.noteFailure(firstErr)
	}
	return nil, firstErr
}

// load pushes one partition.
func (c *shardClient) load(ctx context.Context, req *LoadRequest) (*LoadResponse, error) {
	out, err := c.call(ctx, "/v1/shard/load", req,
		func() any { return &LoadResponse{} },
		func(v any) int { return v.(*LoadResponse).Proto })
	if err != nil {
		return nil, err
	}
	return out.(*LoadResponse), nil
}

// query fetches one partial skyline.
func (c *shardClient) query(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	out, err := c.call(ctx, "/v1/shard/query", req,
		func() any { return &QueryResponse{} },
		func(v any) int { return v.(*QueryResponse).Proto })
	if err != nil {
		return nil, err
	}
	return out.(*QueryResponse), nil
}

// batch fetches partials for many preferences in one round trip. The
// partials are positional, so a response without exactly one per preference
// is a protocol error.
func (c *shardClient) batch(ctx context.Context, req *BatchRequest) (*BatchResponse, error) {
	out, err := c.call(ctx, "/v1/shard/batch", req,
		func() any { return &BatchResponse{} },
		func(v any) int { return v.(*BatchResponse).Proto })
	if err != nil {
		return nil, err
	}
	resp := out.(*BatchResponse)
	if len(resp.Partials) != len(req.Preferences) {
		return nil, fmt.Errorf("%w: %s: %d partials for %d preferences", ErrShardProtocol, c.name(), len(resp.Partials), len(req.Preferences))
	}
	return resp, nil
}

// info probes one URL (not hedged — the probe loop wants per-URL verdicts).
func (c *shardClient) info(ctx context.Context, url string) (*InfoResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/shard/info", nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrShardProtocol, url, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrShardUnavailable, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: %s: info probe failed: %v (%s)", ErrShardUnavailable, url, err, resp.Status)
	}
	var out InfoResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("%w: %s: undecodable info: %v", ErrShardProtocol, url, err)
	}
	if out.Proto != ProtoVersion {
		return nil, fmt.Errorf("%w: %s: version skew: shard speaks protocol %d, coordinator %d", ErrShardProtocol, url, out.Proto, ProtoVersion)
	}
	return &out, nil
}
