// Package router is the fault-tolerant routing tier in front of N ecssd
// shards (DESIGN.md §10). Solve requests are consistent-hashed on the
// instance's content hash (graph.Hash prefix), so one graph always lands on
// the same shard's warm cache and store; every key also has a stable
// replica/failover order over the remaining shards. The router survives any
// single shard's failure or drain: active /healthz probes plus a passive
// consecutive-failure circuit breaker (exponential backoff, half-open
// trials) eject dead shards, connect errors and 5xx responses retry on the
// next replica with bounded jitter, and a request that outlives the
// EWMA-derived p99 estimate is hedged to a second shard — first ack wins,
// the loser is canceled via context. Results are content-addressed and the
// solver is deterministic, so any shard can (re)produce byte-identical
// bytes for any key: failover needs no replication protocol, only a warm
// or cold re-solve.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twoecss/internal/alias"
	"twoecss/internal/faults"
	"twoecss/internal/obs"
	"twoecss/internal/service"
)

// Config tunes the router. Zero values select the documented defaults.
type Config struct {
	// Replicas is the size of each key's replica set: how many shards are
	// considered "home" for a key before failover spills onto the rest of
	// the ring (default 2, clamped to the shard count).
	Replicas int
	// VNodes is the number of virtual ring points per shard (default 64).
	VNodes int
	// ProbeInterval is the active health-check period (default 500ms);
	// ProbeTimeout bounds one probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// EjectAfter is the consecutive-failure threshold that trips the
	// breaker (default 3). EjectBackoff is the first ejection's length,
	// doubling per re-ejection up to EjectBackoffMax (defaults 500ms, 15s).
	EjectAfter      int
	EjectBackoff    time.Duration
	EjectBackoffMax time.Duration
	// HedgeAfter, when positive, is a fixed hedging trigger. Zero selects
	// the adaptive policy: hedge when a request outlives the EWMA-tracked
	// p99 estimate (mean + 4·mean-deviation over recent successes), active
	// only once hedgeMinSamples successes have been observed.
	HedgeAfter time.Duration
	// MaxAttempts bounds total tries per request including the first and
	// any hedge (default 0: one try per distinct shard).
	MaxAttempts int
	// RetryJitter is the upper bound of the uniform random delay before
	// each retry attempt, decorrelating retry storms (default 25ms).
	RetryJitter time.Duration
	// SLOLatency is the route-latency SLO threshold: a routed 2xx counting
	// as "good" must be relayed within it (default 2s). Objectives are fixed
	// (99% latency, 99.9% availability), exported as ecss_slo_* burn rates.
	SLOLatency time.Duration
	// Obs is the router's observability hub (nil: a private one is
	// created). The router publishes router.* events on its bus, registers
	// its metrics, and — via the shard firehose aggregator — republishes
	// every shard's events tagged with the origin shard address.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.EjectBackoff <= 0 {
		c.EjectBackoff = 500 * time.Millisecond
	}
	if c.EjectBackoffMax <= 0 {
		c.EjectBackoffMax = 15 * time.Second
	}
	if c.RetryJitter < 0 {
		c.RetryJitter = 0
	} else if c.RetryJitter == 0 {
		c.RetryJitter = 25 * time.Millisecond
	}
	if c.SLOLatency <= 0 {
		c.SLOLatency = 2 * time.Second
	}
	return c
}

// Adaptive hedging bounds: never hedge before the estimator has seen a
// workload, never sooner than hedgeFloor (a hedge under a few ms buys
// nothing and doubles load), never later than hedgeCeil.
const (
	hedgeMinSamples = 16
	hedgeFloor      = 5 * time.Millisecond
	hedgeCeil       = 30 * time.Second
)

// maxRelayBytes bounds one buffered backend response; matches the service's
// own request bound.
const maxRelayBytes = 1 << 28

// aliasGeneration sizes one generation of the router's body-digest alias
// (at most twice this many bodies are remembered, 40 bytes each).
const aliasGeneration = 4096

// Router fronts a fixed shard set. Create with New, stop with Close.
type Router struct {
	cfg    Config
	shards []*shard
	ring   *ring
	client *http.Client
	// o is the observability hub (never nil after New); forwardHist is the
	// deliverable-forward latency histogram; sloLatency and sloAvail are the
	// declared routing SLOs (observe.go).
	o           *obs.Obs
	forwardHist *obs.Histogram
	sloLatency  *obs.SLO
	sloAvail    *obs.SLO

	// p99 estimator over successful forward latencies, all shards pooled:
	// EWMA mean and EWMA mean-absolute-deviation, sample-counted so the
	// cold start never hedges on noise. Guarded by emu.
	emu     sync.Mutex
	ewmaNs  float64
	devNs   float64
	samples int64

	requests  atomic.Int64 // solve requests received
	retries   atomic.Int64 // extra attempts after a retryable failure
	hedges    atomic.Int64 // attempts launched by the hedge trigger
	hedgesWon atomic.Int64 // hedged attempts that produced the winning response
	ejections atomic.Int64 // breaker trips, active + passive
	noShard   atomic.Int64 // requests failed for want of any eligible shard
	aliasHits atomic.Int64 // requests routed by body digest, skipping decode
	draining  atomic.Bool

	// aliases maps the digest of every body the router decoded to its ring
	// point (self-locking).
	aliases *alias.Map[uint64]
	// testDecode, when set (tests only), runs each time a solve body takes
	// the full decode path.
	testDecode func()

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a router over shardAddrs (base URLs) and starts its active
// prober. All shards start healthy; the first probe round corrects that
// within one ProbeInterval.
func New(cfg Config, shardAddrs []string) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(shardAddrs) == 0 {
		return nil, errors.New("router: need at least one shard")
	}
	rt := &Router{
		cfg: cfg,
		// Transport defaults suffice; no overall client timeout because
		// wait=true solves legitimately block. Cancellation is per-request
		// via context.
		client:  &http.Client{},
		o:       cfg.Obs,
		aliases: alias.New[uint64](aliasGeneration),
		stop:    make(chan struct{}),
	}
	if rt.o == nil {
		rt.o = obs.New()
	}
	seen := make(map[string]bool, len(shardAddrs))
	ids := make([]string, 0, len(shardAddrs))
	for i, addr := range shardAddrs {
		addr = strings.TrimRight(strings.TrimSpace(addr), "/")
		if addr == "" || seen[addr] {
			return nil, fmt.Errorf("router: empty or duplicate shard address %q", shardAddrs[i])
		}
		seen[addr] = true
		ids = append(ids, addr)
		rt.shards = append(rt.shards, &shard{
			id:      i,
			addr:    addr,
			state:   StateHealthy,
			backoff: cfg.EjectBackoff,
		})
	}
	rt.ring = newRing(ids, cfg.VNodes)
	rt.registerMetrics()
	rt.wg.Add(1)
	go rt.prober()
	for _, sh := range rt.shards {
		rt.wg.Add(1)
		go rt.aggregate(sh)
	}
	return rt, nil
}

// Close stops the prober. In-flight forwards finish on their own contexts.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

// MarkDraining flips the router's own /healthz to 503 draining; forwarding
// continues so in-flight and straggler requests still get answers.
func (rt *Router) MarkDraining() {
	rt.draining.Store(true)
	rt.emit(obs.Event{Type: obs.EvRouterDrain})
}

func (rt *Router) noteEjection(sh *shard, cause error) {
	rt.ejections.Add(1)
	e := obs.Event{Type: obs.EvRouterEject, Shard: sh.addr}
	if cause != nil {
		e.Err = cause.Error()
	}
	rt.emit(e)
}

// candidates returns the key's eligible shards in ring preference order:
// the replica set first, then the failover tail. Draining and ejected
// shards are skipped; an ejected shard past its backoff re-enters here as
// half-open.
func (rt *Router) candidates(key uint64) []*shard {
	now := time.Now()
	order := rt.ring.order(key)
	out := make([]*shard, 0, len(order))
	for _, idx := range order {
		if sh := rt.shards[idx]; sh.eligible(now) {
			out = append(out, sh)
		}
	}
	return out
}

// hedgeDelay returns the current hedging trigger, or 0 when hedging is off
// (cold estimator and no fixed override).
func (rt *Router) hedgeDelay() time.Duration {
	if rt.cfg.HedgeAfter > 0 {
		return rt.cfg.HedgeAfter
	}
	rt.emu.Lock()
	defer rt.emu.Unlock()
	if rt.samples < hedgeMinSamples {
		return 0
	}
	d := time.Duration(rt.ewmaNs + 4*rt.devNs)
	return min(max(d, hedgeFloor), hedgeCeil)
}

// observeLatency feeds one successful forward into the p99 estimator.
func (rt *Router) observeLatency(dur time.Duration) {
	x := float64(dur)
	rt.emu.Lock()
	if rt.samples == 0 {
		rt.ewmaNs = x
	} else {
		rt.ewmaNs = 0.9*rt.ewmaNs + 0.1*x
		rt.devNs = 0.9*rt.devNs + 0.1*math.Abs(x-rt.ewmaNs)
	}
	rt.samples++
	rt.emu.Unlock()
}

// attemptResult is one backend attempt's outcome, buffered in full so the
// winner can be relayed after losers are canceled.
type attemptResult struct {
	shard  *shard
	status int
	header http.Header
	body   []byte
	err    error
	dur    time.Duration
	hedged bool
}

// deliverable reports whether the response should be relayed to the client
// rather than retried on another shard: any response the backend produced
// deliberately about THIS request (2xx/4xx/504), as opposed to transport
// errors, 5xx, and shed/draining statuses that another replica may well
// answer.
func (a *attemptResult) deliverable() bool {
	if a.err != nil {
		return false
	}
	switch {
	case a.status == http.StatusTooManyRequests, a.status == http.StatusServiceUnavailable:
		return false
	case a.status >= 500 && a.status != http.StatusGatewayTimeout:
		// 504 is the deadline-DOA contract — request-intrinsic, retrying
		// elsewhere would burn the remaining deadline for the same answer.
		return false
	}
	return true
}

// breakerRelevant reports whether the failure should count against the
// shard's circuit breaker: connect errors and 5xx crashes, but not 429
// (alive, shedding) or 503 (alive, draining — handled by state instead).
func (a *attemptResult) breakerRelevant() bool {
	if a.err != nil {
		return true
	}
	return a.status >= 500 && a.status != http.StatusServiceUnavailable && a.status != http.StatusGatewayTimeout
}

// attempt posts body to sh, buffering the full response. jitter delays the
// send (retry decorrelation); a canceled context aborts both the delay and
// the request. Every attempt of one forward — retries and hedges included —
// carries the same request id, so the shards' traces stitch into one.
func (rt *Router) attempt(ctx context.Context, sh *shard, reqID string, body []byte, hedged bool, jitter time.Duration, out chan<- *attemptResult) {
	res := &attemptResult{shard: sh, hedged: hedged}
	if jitter > 0 {
		t := time.NewTimer(time.Duration(rand.Int63n(int64(jitter))))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			res.err = ctx.Err()
			out <- res
			return
		}
	}
	sh.mu.Lock()
	sh.forwards++
	if hedged {
		sh.hedges++
	}
	sh.mu.Unlock()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.addr+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		res.err = err
		out <- res
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := rt.client.Do(req)
	if err != nil {
		res.err = err
		res.dur = time.Since(start)
		out <- res
		return
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	res.header = resp.Header
	res.body, res.err = io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes))
	res.dur = time.Since(start)
	out <- res
}

// errNoShard is returned (as a 503) when no shard is eligible for a key.
var errNoShard = errors.New("router: no healthy shard available")

// forward drives one client request to a deliverable response: primary
// attempt, bounded jittered retries on retryable failures, and one hedge
// when the primary outlives the hedge trigger. First deliverable response
// wins; canceling ctx (the deferred cancel on return) aborts the losers.
func (rt *Router) forward(ctx context.Context, reqID string, body []byte, cands []*shard) (*attemptResult, error) {
	if len(cands) == 0 {
		rt.noShard.Add(1)
		rt.emit(obs.Event{Type: obs.EvRouterNoShard, Req: reqID})
		return nil, errNoShard
	}
	maxAttempts := len(cands)
	if rt.cfg.MaxAttempts > 0 && rt.cfg.MaxAttempts < maxAttempts {
		maxAttempts = rt.cfg.MaxAttempts
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan *attemptResult, maxAttempts)
	next, inflight := 0, 0
	// pending tracks launched-but-unfinished attempts so the winner can
	// name the losers its deferred cancel kills (router.attempt_canceled).
	pending := make(map[*shard]bool, maxAttempts)
	launch := func(hedged bool, jitter time.Duration) {
		sh := cands[next]
		next++
		inflight++
		pending[sh] = true
		go rt.attempt(ctx, sh, reqID, body, hedged, jitter, results)
	}
	launch(false, 0)

	var hedgeC <-chan time.Time
	if d := rt.hedgeDelay(); d > 0 && maxAttempts > 1 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	var last *attemptResult
	for {
		select {
		case res := <-results:
			inflight--
			delete(pending, res.shard)
			if res.deliverable() {
				if recovered := res.shard.reportSuccess(rt.cfg, res.dur); recovered {
					rt.emit(obs.Event{Type: obs.EvRouterShardRecovered, Shard: res.shard.addr})
				}
				if res.status < 300 {
					rt.observeLatency(res.dur)
					rt.forwardHist.Observe(res.dur.Seconds())
				}
				if res.hedged {
					rt.hedgesWon.Add(1)
					res.shard.mu.Lock()
					res.shard.hedgesWon++
					res.shard.mu.Unlock()
					rt.emit(obs.Event{Type: obs.EvRouterHedgeWon, Req: reqID, Shard: res.shard.addr,
						MS: float64(res.dur) / float64(time.Millisecond)})
				}
				// The deferred cancel aborts every still-running loser; name
				// them so a hedged request's fate is fully narrated.
				for sh := range pending {
					rt.emit(obs.Event{Type: obs.EvRouterAttemptCanceled, Req: reqID, Shard: sh.addr})
				}
				return res, nil
			}
			if ctx.Err() != nil && errors.Is(res.err, context.Canceled) {
				// Cancellation unwinding (client gone), not a shard verdict.
				if inflight == 0 {
					return nil, ctx.Err()
				}
				continue
			}
			if res.breakerRelevant() {
				if res.shard.reportFailure(rt.cfg, failureCause(res)) {
					rt.noteEjection(res.shard, failureCause(res))
				}
			} else if res.status == http.StatusServiceUnavailable {
				// The shard told us it is draining; believe it immediately
				// instead of waiting for the next probe round.
				if res.shard.setDraining() {
					rt.emit(obs.Event{Type: obs.EvRouterShardDrain, Shard: res.shard.addr})
				}
			}
			last = res
			if next < maxAttempts {
				rt.retries.Add(1)
				rt.emit(obs.Event{Type: obs.EvRouterRetry, Req: reqID, Shard: cands[next].addr,
					Err: failureCause(res).Error()})
				launch(false, rt.cfg.RetryJitter)
			} else if inflight == 0 {
				return last, nil
			}
		case <-hedgeC:
			hedgeC = nil
			if next < maxAttempts {
				rt.hedges.Add(1)
				rt.emit(obs.Event{Type: obs.EvRouterHedge, Req: reqID, Shard: cands[next].addr})
				launch(true, 0)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func failureCause(res *attemptResult) error {
	if res.err != nil {
		return res.err
	}
	return fmt.Errorf("HTTP %d", res.status)
}

// Handler returns the router's HTTP API, a drop-in superset of one shard's:
//
//	POST /v1/solve            routed by content hash, retried/hedged across shards
//	GET  /v1/jobs/{id}        fanned out to eligible shards, first hit wins
//	GET  /v1/jobs/{id}/stream per-job SSE, proxied from the owning shard
//	GET  /v1/jobs/{id}/trace  job event timeline, fanned out like job lookups
//	GET  /v1/jobs/{id}/profile engine round profile, fanned out like job lookups
//	GET  /v1/events           aggregated firehose: router events + every
//	                          shard's events tagged with the origin shard
//	GET  /v1/stats            router + per-shard health and counters
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             200 while >=1 shard is eligible, else (or draining) 503
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", rt.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", rt.handleJobStream)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", rt.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", rt.handleJobProfile)
	mux.HandleFunc("GET /v1/events", rt.o.Bus.ServeFirehose)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.Handle("GET /metrics", rt.o.Metrics.Handler())
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return mux
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	// The router is usually the first tier to see the request: mint the
	// trace id here (or adopt the client's) so every shard attempt of this
	// forward shares it, and echo it on all responses including errors.
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)
	if err := faults.Point("router.forward"); err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRelayBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "read body: " + err.Error()})
		return
	}
	// A body the router already decoded routes by its digest alone
	// (DESIGN.md §7.6): the ring point is a function of the bytes.
	digest := alias.Of(body)
	point, ok := rt.aliases.Get(digest)
	if ok {
		rt.aliasHits.Add(1)
	} else {
		if hook := rt.testDecode; hook != nil {
			hook()
		}
		if point, err = decodePoint(body); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		rt.aliases.Put(digest, point)
	}
	res, err := rt.forward(r.Context(), reqID, body, rt.candidates(point))
	// SLO classification: the routing tier is available when it relayed a
	// deliverable non-5xx answer; 2xx relays additionally count against the
	// route-latency objective.
	good := err == nil && res.err == nil && res.status < http.StatusInternalServerError
	rt.sloAvail.Observe(good)
	if good && res.status < http.StatusMultipleChoices {
		rt.sloLatency.ObserveLatency(res.dur, rt.cfg.SLOLatency)
	}
	switch {
	case errors.Is(err, errNoShard):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	case err != nil:
		// Client context canceled/expired mid-forward.
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	case res.err != nil:
		// Every candidate failed at the transport layer.
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": res.err.Error()})
		return
	}
	relay(w, res)
}

// decodePoint is the full path of a solve body: decode, graph build and
// hash, down to the ring point the request routes on.
func decodePoint(body []byte) (uint64, error) {
	var req service.SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return 0, fmt.Errorf("bad request body: %w", err)
	}
	g, err := req.Graph.Graph()
	if err != nil {
		return 0, fmt.Errorf("bad graph: %w", err)
	}
	return keyPoint(g.Hash()), nil
}

// relay writes a buffered backend response to the client, preserving the
// contract-bearing headers (Retry-After on 429/503 in particular) and
// naming the shard whose attempt won so job ids — shard-local — can be
// followed up against the right backend.
func relay(w http.ResponseWriter, res *attemptResult) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if res.shard != nil {
		w.Header().Set(obs.ShardHeader, res.shard.addr)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// handleJob resolves a job id by asking each eligible shard in turn: job
// ids are shard-local, so the router fans out and relays the first hit.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	rt.fanoutGet(w, r, "/v1/jobs/"+r.PathValue("id"))
}

// handleJobTrace fans a trace lookup out exactly like a job lookup.
func (rt *Router) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	rt.fanoutGet(w, r, "/v1/jobs/"+r.PathValue("id")+"/trace")
}

// handleJobProfile fans an engine-profile lookup out like a job lookup: the
// owning shard retains the round timeline, the router only locates it.
func (rt *Router) handleJobProfile(w http.ResponseWriter, r *http.Request) {
	rt.fanoutGet(w, r, "/v1/jobs/"+r.PathValue("id")+"/profile")
}

// fanoutGet relays the first shard 200 for path, trying eligible shards in
// id order (job ids are shard-local; at most one shard knows any given id).
func (rt *Router) fanoutGet(w http.ResponseWriter, r *http.Request, path string) {
	now := time.Now()
	for _, sh := range rt.shards {
		if !sh.eligible(now) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, sh.addr+path, nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		relay(w, &attemptResult{shard: sh, status: resp.StatusCode, header: resp.Header, body: body})
		return
	}
	writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("%q not found on any shard", path)})
}

// Stats is the router's /v1/stats document: its own routing counters plus
// the per-shard health view its breaker and prober maintain.
type Stats struct {
	Shards   []ShardStats `json:"shards"`
	Eligible int          `json:"eligible"`

	Requests  int64 `json:"requests"`
	Retries   int64 `json:"retries"`
	Hedges    int64 `json:"hedges"`
	HedgesWon int64 `json:"hedges_won"`
	Ejections int64 `json:"ejections"`
	NoShard   int64 `json:"no_shard"`
	// AliasHits counts solve requests routed by body digest: a
	// byte-identical resubmission skips the decode, graph build and hash.
	AliasHits int64 `json:"alias_hits"`

	// HedgeDelayMS is the live hedging trigger (0: hedging inactive);
	// P99EstMS is the EWMA-derived latency estimate feeding it.
	HedgeDelayMS float64 `json:"hedge_delay_ms"`
	P99EstMS     float64 `json:"p99_est_ms"`

	// Faults mirrors the armed fault plan's counters (router.forward).
	Faults map[string]faults.PointStats `json:"faults,omitempty"`
}

// Stats snapshots the router counters.
func (rt *Router) Stats() Stats {
	st := Stats{
		Requests:  rt.requests.Load(),
		Retries:   rt.retries.Load(),
		Hedges:    rt.hedges.Load(),
		HedgesWon: rt.hedgesWon.Load(),
		Ejections: rt.ejections.Load(),
		NoShard:   rt.noShard.Load(),
		AliasHits: rt.aliasHits.Load(),
		Faults:    faults.Snapshot(),
	}
	now := time.Now()
	for _, sh := range rt.shards {
		st.Shards = append(st.Shards, sh.stats())
		if sh.eligible(now) {
			st.Eligible++
		}
	}
	st.HedgeDelayMS = float64(rt.hedgeDelay()) / 1e6
	rt.emu.Lock()
	st.P99EstMS = (rt.ewmaNs + 4*rt.devNs) / 1e6
	rt.emu.Unlock()
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}

// handleHealthz reports router readiness: serving (>=1 eligible shard),
// degraded to 503 when every shard is out, and 503 draining once
// MarkDraining was called.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := rt.Stats()
	if rt.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "eligible": st.Eligible})
		return
	}
	if st.Eligible == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no-healthy-shard", "eligible": 0})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "eligible": st.Eligible})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
