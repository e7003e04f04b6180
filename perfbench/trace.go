package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twoecss/internal/congest"
	"twoecss/internal/ecss"
	"twoecss/internal/obs"
	"twoecss/internal/router"
	"twoecss/internal/service"
	"twoecss/internal/store"
)

// tracer keeps spans in memory and writes them out when the run ends.
// Spans of one request share its request id as their trace id.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record keeps one span while recording is on; a nil tracer records
// nothing.
func (t *tracer) record(trace, name, parent string, start, end time.Time) {
	if t == nil || !t.on.Load() || trace == "" {
		return
	}
	us := func(x time.Time) float64 { return float64(x.Sub(t.t0)) / float64(time.Microsecond) }
	t.mu.Lock()
	t.spans = append(t.spans, span{trace, name, parent, us(start), us(end)})
	t.mu.Unlock()
}

// wrap records a span named layer, caused by a span named parent, around
// every request h serves.
func (t *tracer) wrap(layer, parent string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(r.Header.Get(obs.RequestIDHeader), layer, parent, start, time.Now())
	})
}

// durations maps trace id to the duration in ms of its first span named
// name.
func (t *tracer) durations(name string) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64)
	for _, s := range t.spans {
		if _, seen := out[s.Trace]; s.Name == name && !seen {
			out[s.Trace] = (s.EndUS - s.StartUS) / 1000
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	return errors.Join(err, f.Close())
}

// stages are the ecss pipeline stages, as Options.Progress names them.
var stages = []string{"bfs", "mst", "tap", "assemble"}

// layers computes the per-layer metrics of a traced run: plain and spanned
// are the two halves of the timed phase, the first without spans.
func (r *runner) layers(ctx context.Context, st *state, plain, spanned []sample) ([]metric, error) {
	var out []metric
	add := func(name string, v float64, unit string, n int) { out = append(out, metric{name, v, unit, n}) }

	p50 := func(ss []sample) float64 {
		var xs []float64
		for _, s := range ss {
			if s.ok && s.counted {
				xs = append(xs, ms(s.latency))
			}
		}
		return median(xs)
	}
	add("trace_overhead_pct", (p50(spanned)/p50(plain)-1)*100, "%", len(spanned))

	outer := "shard"
	if st.fleet.front != nil {
		outer = "router"
	}
	handler := r.tr.durations(outer)
	var transport []float64
	for id, c := range r.tr.durations("client") {
		if h, ok := handler[id]; ok {
			transport = append(transport, c-h)
		}
	}
	add("http.transport_ms", median(transport), "ms", len(transport))

	for _, f := range []func(context.Context, *state) ([]metric, error){r.serviceLayer, r.routerLayer, r.storeLayer, r.solveLayers} {
		ms, err := f(ctx, st)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// owner is the shard a replayed body's result lives on.
func (st *state) ownerOf(in *instance) *shard {
	for _, sh := range st.fleet.shards {
		if sh.srv.url == st.owner[in] {
			return sh
		}
	}
	return st.fleet.shards[0]
}

// serviceLayer replays each body through the public calls the ecssd
// request path makes, in order, then through the service handler itself.
func (r *runner) serviceLayer(ctx context.Context, st *state) ([]metric, error) {
	var decode, build, hash, decodeHash, submit, encode, handler, unattributed []float64
	var mallocs, alloc uint64
	handlers := map[*shard]http.Handler{}
	for n, in := range st.replays {
		if ctx.Err() != nil {
			return nil, errCanceled
		}
		sh := st.ownerOf(in)
		id := fmt.Sprintf("replay-%d", n)
		t0 := time.Now()
		var req service.SolveRequest
		if err := json.Unmarshal(in.body, &req); err != nil {
			return nil, err
		}
		t1 := time.Now()
		g, err := req.Graph.Graph()
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		g.Hash()
		t3 := time.Now()
		job, _, err := sh.svc.Submit(g, in.options())
		if err != nil {
			return nil, fmt.Errorf("replay submit: %w", err)
		}
		<-job.Done()
		t4 := time.Now()
		info, _ := sh.svc.JobInfo(job.ID())
		if _, err := json.Marshal(info); err != nil {
			return nil, err
		}
		t5 := time.Now()
		if ref := st.refs[in]; ref != nil && !bytes.Equal(info.Result, ref) {
			r.chk.fail("replay %s: service result differs from the served one", id)
		}
		ts := []time.Time{t0, t1, t2, t3, t4, t5}
		for i, name := range []string{"service.decode", "graph.build", "graph.hash", "service.submit", "service.encode"} {
			r.tr.record(id, name, "replay", ts[i], ts[i+1])
		}

		h := handlers[sh]
		if h == nil {
			h = sh.svc.Handler()
			handlers[sh] = h
		}
		hreq := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(in.body))
		hreq.Header.Set(obs.RequestIDHeader, id)
		rec := httptest.NewRecorder()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		th := time.Now()
		h.ServeHTTP(rec, hreq)
		te := time.Now()
		runtime.ReadMemStats(&m1)
		r.tr.record(id, "service.handler", "replay", th, te)
		if rec.Code != http.StatusOK {
			r.chk.fail("replay %s: service handler answered %d", id, rec.Code)
		}
		mallocs += m1.Mallocs - m0.Mallocs
		alloc += m1.TotalAlloc - m0.TotalAlloc

		decode = append(decode, ms(t1.Sub(t0)))
		build = append(build, ms(t2.Sub(t1)))
		hash = append(hash, ms(t3.Sub(t2)))
		decodeHash = append(decodeHash, ms(t3.Sub(t0)))
		submit = append(submit, float64(t4.Sub(t3))/float64(time.Microsecond))
		encode = append(encode, ms(t5.Sub(t4)))
		handler = append(handler, ms(te.Sub(th)))
		unattributed = append(unattributed, ms(te.Sub(th)-t5.Sub(t0)))
	}
	n := len(st.replays)

	var submitted, hits int64
	for _, sh := range st.fleet.shards {
		s := sh.svc.Stats()
		submitted += s.Submitted
		hits += s.Hits()
	}
	var waits []float64
	if err := queueWaits(ctx, st.solved, &waits); err != nil {
		return nil, err
	}
	return []metric{
		{"service.decode_ms", median(decode), "ms", n},
		{"graph.build_ms", median(build), "ms", n},
		{"graph.hash_ms", median(hash), "ms", n},
		{"service.submit_us", median(submit), "us", n},
		{"service.encode_ms", median(encode), "ms", n},
		{"service.handler_ms", median(handler), "ms", n},
		{"service.unattributed_ms", median(unattributed), "ms", n},
		{"service.allocs_per_req", float64(mallocs) / float64(n), "count", n},
		{"service.alloc_kb_per_req", float64(alloc) / 1024 / float64(n), "KiB", n},
		{"service.hit_ratio", float64(hits) / float64(submitted), "ratio", int(submitted)},
		{"service.queue_wait_ms", median(waits), "ms", len(waits)},
		// The router decodes, builds and hashes each body with the same
		// calls before it forwards it.
		{"router.decode_hash_ms", median(decodeHash), "ms", n},
	}, nil
}

// maxTraceLookups bounds the job traces read for service.queue_wait_ms.
const maxTraceLookups = 64

// queueWaits reads the admitted-to-started wait of the most recent solved
// jobs from each shard's GET /v1/jobs/{id}/trace.
func queueWaits(ctx context.Context, jobs []jobRef, out *[]float64) error {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for _, j := range jobs[max(0, len(jobs)-maxTraceLookups):] {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, j.shard+"/v1/jobs/"+j.job+"/trace", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return fmt.Errorf("job trace: %w", err)
		}
		var tr service.TraceResponse
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("job trace %s: %w", j.job, err)
		}
		var admitted, started time.Time
		for _, ev := range tr.Events {
			switch {
			case ev.Type == obs.EvJobAdmitted && admitted.IsZero():
				admitted = ev.TS
			case ev.Type == obs.EvJobStarted && started.IsZero():
				started = ev.TS
			}
		}
		if !admitted.IsZero() && !started.IsZero() {
			*out = append(*out, ms(started.Sub(admitted)))
		}
	}
	return nil
}

// routerLayer replays each body through a router handler: the workload's
// own router, or one put in front of the single shard for the replays.
func (r *runner) routerLayer(ctx context.Context, st *state) ([]metric, error) {
	rt := (*router.Router)(nil)
	if st.fleet.front != nil {
		rt = st.fleet.front.rt
	} else {
		var err error
		if rt, err = router.New(router.Config{Replicas: routerReplicas}, []string{st.fleet.shards[0].srv.url}); err != nil {
			return nil, err
		}
		defer rt.Close()
	}
	h := rt.Handler()
	var overhead []float64
	var routed = map[string]float64{}
	for k, in := range st.replays {
		if ctx.Err() != nil {
			return nil, errCanceled
		}
		id := fmt.Sprintf("route-%d", k)
		hreq := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(in.body))
		hreq.Header.Set(obs.RequestIDHeader, id)
		rec := httptest.NewRecorder()
		th := time.Now()
		h.ServeHTTP(rec, hreq)
		te := time.Now()
		r.tr.record(id, "router.replay", "replay", th, te)
		if rec.Code != http.StatusOK {
			r.chk.fail("replay %s: router answered %d", id, rec.Code)
			continue
		}
		routed[id] = ms(te.Sub(th))
	}
	shardMS := r.tr.durations("shard")
	for id, d := range routed {
		if s, ok := shardMS[id]; ok {
			overhead = append(overhead, d-s)
		}
	}
	s := rt.Stats()
	won := 0.0
	if s.Hedges > 0 {
		won = float64(s.HedgesWon) / float64(s.Hedges)
	}
	req := float64(max(s.Requests, 1))
	return []metric{
		{"router.overhead_ms", median(overhead), "ms", len(overhead)},
		{"router.hedges_per_req", float64(s.Hedges) / req, "ratio", int(s.Requests)},
		{"router.hedges_won_ratio", won, "ratio", int(s.Hedges)},
		{"router.retries_per_req", float64(s.Retries) / req, "ratio", int(s.Requests)},
	}, nil
}

// getViewReads is how many times each scratch-store key is read.
const getViewReads = 4

// storeLayer times Store.Put+Flush and Store.GetView on a scratch store
// filled with the replayed results, and reads the serving stores'
// counters.
func (r *runner) storeLayer(ctx context.Context, st *state) (_ []metric, err error) {
	dir, err := os.MkdirTemp(r.tmp, "scratch-store-")
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	s, err := store.OpenWith(dir, store.Options{MaxBytes: daemonStoreBytes})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.Close()) }()
	var put, get []float64
	for k, in := range st.replays {
		if ctx.Err() != nil {
			return nil, errCanceled
		}
		payload := st.refs[in]
		if payload == nil {
			continue
		}
		key := sha256.Sum256(fmt.Appendf(nil, "perfbench %d %d", r.cfg.seed, k))
		t0 := time.Now()
		if err := s.Put(key, in.g.Hash(), [32]byte{}, payload); err != nil {
			return nil, err
		}
		if err := s.Flush(); err != nil {
			return nil, err
		}
		put = append(put, ms(time.Since(t0)))
		for i := 0; i < getViewReads; i++ {
			t := time.Now()
			v, ok := s.GetView(key)
			get = append(get, float64(time.Since(t))/float64(time.Microsecond))
			if !ok {
				r.chk.fail("scratch store lost key %d", k)
				continue
			}
			if !bytes.Equal(v.Bytes(), payload) {
				r.chk.fail("scratch store returned other bytes for key %d", k)
			}
			v.Release()
		}
	}
	var storeHits, hits, maps, fallbacks int64
	for _, sh := range st.fleet.shards {
		ss := sh.svc.Stats()
		storeHits += ss.StoreHits
		hits += ss.Hits()
		if ss.Store != nil {
			maps += ss.Store.Mmap.Maps
			fallbacks += ss.Store.Mmap.Fallbacks
		}
	}
	return []metric{
		{"store.get_view_us", median(get), "us", len(get)},
		{"store.put_ms", median(put), "ms", len(put)},
		{"store.hit_share", float64(storeHits) / float64(max(hits, 1)), "ratio", int(hits)},
		{"store.mmap_maps", float64(maps), "count", 1},
		{"store.fallbacks", float64(fallbacks), "count", 1},
	}, nil
}

// solveLayers solves every instance of the trace set directly with
// ecss.SolveOn on a fresh congest network, as a service worker would, and
// reports the pipeline stages and the engine's costs.
func (r *runner) solveLayers(ctx context.Context, st *state) ([]metric, error) {
	stageMS := map[string]float64{}
	stageRounds := map[string]int64{}
	stageMsgs := map[string]int64{}
	var newNet, verify []float64
	scaling := map[int]float64{}
	var rounds, messages, words, mallocs, alloc int64
	var solveNs time.Duration
	for k, in := range st.traceSet {
		if ctx.Err() != nil {
			return nil, errCanceled
		}
		id := fmt.Sprintf("solve-%d", k)
		t0 := time.Now()
		net := congest.NewNetwork(in.g)
		t1 := time.Now()
		r.tr.record(id, "congest.new_network", "solve", t0, t1)
		newNet = append(newNet, ms(t1.Sub(t0)))

		opt := in.options()
		opt.Workers = daemonNetWorkers
		var stageStart time.Time
		opt.Progress = func(string) { stageStart = time.Now() }
		opt.StageStats = func(stage string, d congest.Stats) {
			now := time.Now()
			r.tr.record(id, "ecss.stage."+stage, "ecss.solve", stageStart, now)
			stageMS[stage] += ms(now.Sub(stageStart))
			stageRounds[stage] += d.SimulatedRounds
			stageMsgs[stage] += d.Messages
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ts := time.Now()
		res, err := ecss.SolveOn(net, opt)
		te := time.Now()
		runtime.ReadMemStats(&m1)
		net.Close()
		if err != nil {
			return nil, fmt.Errorf("solve %s n=%d: %w", in.family, in.n, err)
		}
		r.tr.record(id, "ecss.solve", "solve", ts, te)
		solveNs += te.Sub(ts)
		mallocs += int64(m1.Mallocs - m0.Mallocs)
		alloc += int64(m1.TotalAlloc - m0.TotalAlloc)
		rounds += res.Stats.SimulatedRounds
		messages += res.Stats.Messages
		words += res.Stats.Words
		if in.scaling > 0 {
			scaling[in.scaling] = ms(te.Sub(ts))
		}

		tv := time.Now()
		if err := ecss.Verify(in.g, res); err != nil {
			r.chk.fail("direct solve %s n=%d: %v", in.family, in.n, err)
		}
		verify = append(verify, ms(time.Since(tv)))
		if got := in.got; got != nil && (got.SimulatedRounds != res.Stats.SimulatedRounds ||
			got.ChargedRounds != res.Stats.ChargedRounds || got.Messages != res.Stats.Messages) {
			r.chk.fail("cold-solve %s n=%d: served bill (%d+%d rounds, %d messages) differs from the direct solve's (%d+%d, %d)",
				in.family, in.n, got.SimulatedRounds, got.ChargedRounds, got.Messages,
				res.Stats.SimulatedRounds, res.Stats.ChargedRounds, res.Stats.Messages)
		}
	}
	n := len(st.traceSet)
	per := func(x int64) float64 { return float64(x) / float64(n) }
	var out []metric
	for _, s := range stages {
		out = append(out, metric{"ecss.stage." + s + "_ms", stageMS[s] / float64(n), "ms", n})
	}
	out = append(out,
		metric{"ecss.verify_ms", median(verify), "ms", n},
		metric{"ecss.solve_ms.n1024", scaling[1], "ms", 1},
		metric{"ecss.solve_ms.n4096", scaling[2], "ms", 1},
		metric{"ecss.allocs_per_solve", per(mallocs), "count", n},
		metric{"ecss.alloc_mb_per_solve", per(alloc) / (1 << 20), "MiB", n},
		metric{"congest.rounds_per_solve", per(rounds), "count", n},
		metric{"congest.messages_per_solve", per(messages), "count", n},
		metric{"congest.words_per_solve", per(words), "count", n},
	)
	for _, s := range stages {
		out = append(out,
			metric{"ecss.stage." + s + ".rounds", per(stageRounds[s]), "count", n},
			metric{"ecss.stage." + s + ".messages", per(stageMsgs[s]), "count", n})
	}
	out = append(out,
		metric{"congest.ns_per_round", float64(solveNs) / float64(max(rounds, 1)), "ns", n},
		metric{"congest.ns_per_message", float64(solveNs) / float64(max(messages, 1)), "ns", n},
		metric{"congest.network_new_ms", median(newNet), "ms", n},
	)
	return out, nil
}
