package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"twoecss/internal/alias"
	"twoecss/internal/obs"
	"twoecss/internal/store"
)

// aliasRig serves a Service over HTTP and counts the request bodies that
// took the full decode path, so tests prove "no decode" by count.
type aliasRig struct {
	s       *Service
	srv     *httptest.Server
	decodes atomic.Int64
}

func newAliasRig(t *testing.T, s *Service) *aliasRig {
	t.Helper()
	r := &aliasRig{s: s, srv: httptest.NewServer(s.Handler())}
	s.testDecode = func() { r.decodes.Add(1) }
	t.Cleanup(r.srv.Close)
	return r
}

// post sends body as-is and decodes the JobResponse. It reports failures
// as errors, so client goroutines may call it.
func (r *aliasRig) post(ctx context.Context, body []byte) (int, JobResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.srv.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return 0, JobResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.srv.Client().Do(req)
	if err != nil {
		return 0, JobResponse{}, err
	}
	defer resp.Body.Close()
	var jr JobResponse
	err = json.NewDecoder(resp.Body).Decode(&jr)
	return resp.StatusCode, jr, err
}

// mustPost posts body and requires the given status.
func (r *aliasRig) mustPost(t *testing.T, body []byte, want int) JobResponse {
	t.Helper()
	code, jr, err := r.post(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	if code != want {
		t.Fatalf("POST /v1/solve: %d %+v, want %d", code, jr, want)
	}
	return jr
}

// job returns the live job record for id.
func (r *aliasRig) job(t *testing.T, id string) *Job {
	t.Helper()
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	j, ok := r.s.jobs[id]
	if !ok {
		t.Fatalf("unknown job %q", id)
	}
	return j
}

// eventually polls cond until it holds or a generous bound expires.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func marshalReq(t *testing.T, req SolveRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAliasResubmissionSkipsDecode: a byte-identical resubmission returns
// the first response's result bytes, marked cached, without a decode.
func TestAliasResubmissionSkipsDecode(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	r := newAliasRig(t, s)
	body := marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, 70)), Wait: true})

	first := r.mustPost(t, body, http.StatusOK)
	if first.Cached || first.Status != StatusDone {
		t.Fatalf("first solve: %+v", first)
	}
	for i := 0; i < 3; i++ {
		again := r.mustPost(t, body, http.StatusOK)
		if !again.Cached || again.JobID != first.JobID || !bytes.Equal(again.Result, first.Result) {
			t.Fatalf("resubmission %d: %+v, want cached job %s with the same bytes", i, again, first.JobID)
		}
	}
	if n := r.decodes.Load(); n != 1 {
		t.Fatalf("%d decodes, want 1: resubmissions must skip decode", n)
	}
	if st := s.Stats(); st.AliasHits != 3 || st.CacheHits != 3 || st.Submitted != 4 || st.Solves != 1 {
		t.Fatalf("stats %+v, want 3 alias hits, 3 cache hits, 4 submissions, 1 solve", st)
	}
	for path, want := range map[string]string{
		"/v1/stats": `"alias_hits":3,`,
		"/metrics":  "\necss_alias_hits_total 3\n",
	} {
		resp, err := r.srv.Client().Get(r.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(doc), want) {
			t.Fatalf("%s lacks %q", path, want)
		}
	}
}

// aliasScenario drives one store-backed service through every tier the
// shared admission lookup has — coalesce onto an in-flight job, memory
// cache hit, disk store hit — resubmitting body X as resubmit(X, i). It
// returns the service's counters, its job.cached/job.coalesced events, the
// result bytes of X's responses, and the decode count.
func aliasScenario(t *testing.T, resubmit func(body []byte, i int) []byte) (Stats, []obs.Event, [][]byte, int64) {
	t.Helper()
	s := New(Config{Workers: 1, CacheEntries: 1, Store: openStore(t, t.TempDir(), 0)})
	started, step := stepGate(s)
	defer drain(t, s)
	r := newAliasRig(t, s)
	sub := s.o.Bus.Subscribe(obs.SubOptions{Types: []string{obs.EvJobCached, obs.EvJobCoalesced}, Buffer: 64})
	x := marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, 71)), Priority: "interactive"})
	y := marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, 72))})

	// X is admitted and held at pickup; a resubmission coalesces onto it.
	jx := r.mustPost(t, x, http.StatusAccepted)
	<-started
	if co := r.mustPost(t, resubmit(x, 1), http.StatusAccepted); !co.Cached || co.JobID != jx.JobID {
		t.Fatalf("coalesce: %+v, want cached job %s", co, jx.JobID)
	}
	step <- struct{}{}
	waitJob(t, r.job(t, jx.JobID))
	var results [][]byte
	results = append(results, r.s.snapshot(r.job(t, jx.JobID)).Result)

	// Memory cache hit.
	results = append(results, r.mustPost(t, resubmit(x, 2), http.StatusOK).Result)

	// Y solves and evicts X from the one-entry memory cache; X is then
	// served from the disk store.
	jy := r.mustPost(t, y, http.StatusAccepted)
	<-started
	step <- struct{}{}
	waitJob(t, r.job(t, jy.JobID))
	if err := s.store.Flush(); err != nil {
		t.Fatal(err)
	}
	results = append(results, r.mustPost(t, resubmit(x, 3), http.StatusOK).Result)

	sub.Close()
	var evs []obs.Event
	for e := range sub.C() {
		// Request ids are minted per request; everything else must match.
		e.Req, e.Seq, e.TS = "", 0, time.Time{}
		evs = append(evs, e)
	}
	return s.Stats(), evs, results, r.decodes.Load()
}

// TestAliasMatchesFullPath runs the same scenario twice: once resubmitting
// the identical bytes (the alias path) and once resubmitting a
// whitespace-padded copy whose digest never repeats (the full path). The
// counters, the per-class breakdown and the events must agree.
func TestAliasMatchesFullPath(t *testing.T) {
	aStats, aEvents, aResults, aDecodes := aliasScenario(t, func(b []byte, _ int) []byte { return b })
	fStats, fEvents, fResults, fDecodes := aliasScenario(t, func(b []byte, i int) []byte {
		return append(slices.Clone(b), strings.Repeat(" ", i)...)
	})
	if aDecodes != 2 || fDecodes != 5 {
		t.Fatalf("decodes: alias path %d (want 2), full path %d (want 5)", aDecodes, fDecodes)
	}
	if aStats.AliasHits != 3 || fStats.AliasHits != 0 {
		t.Fatalf("alias hits: alias path %d (want 3), full path %d (want 0)", aStats.AliasHits, fStats.AliasHits)
	}
	type counters struct {
		Submitted, CacheHits, StoreHits, Coalesced, Solves int64
		Classes                                            map[string]ClassStats
	}
	view := func(st Stats) counters {
		return counters{st.Submitted, st.CacheHits, st.StoreHits, st.Coalesced, st.Solves, st.Classes}
	}
	if a, f := view(aStats), view(fStats); !reflect.DeepEqual(a, f) {
		t.Fatalf("counters differ:\n alias %+v\n full  %+v", a, f)
	}
	if aStats.Coalesced != 1 || aStats.CacheHits != 1 || aStats.StoreHits != 1 {
		t.Fatalf("scenario missed a tier: %+v", aStats)
	}
	if !reflect.DeepEqual(aEvents, fEvents) {
		t.Fatalf("events differ:\n alias %+v\n full  %+v", aEvents, fEvents)
	}
	for i := range aResults {
		if len(aResults[i]) == 0 || !bytes.Equal(aResults[i], aResults[0]) || !bytes.Equal(fResults[i], aResults[0]) {
			t.Fatalf("response %d: result bytes differ from the first solve", i)
		}
	}
}

// TestAliasNeverLearnedFromBadRequest: every body answered 400 — at decode,
// graph build, option or admission-field checks, or validation — decodes
// again on resubmission.
func TestAliasNeverLearnedFromBadRequest(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	r := newAliasRig(t, s)
	g := WireGraph(testGraph(t, 73))
	bad := [][]byte{
		[]byte(`{"graph":`),
		[]byte(`{"graph":{"n":3,"edges":[[0,7,1]]}}`),
		marshalReq(t, SolveRequest{Graph: g, Options: OptionsWire{Variant: "cover9"}}),
		marshalReq(t, SolveRequest{Graph: g, Priority: "urgent"}),
		marshalReq(t, SolveRequest{Graph: g, DeadlineMS: -1}),
		marshalReq(t, SolveRequest{Graph: g, Options: OptionsWire{Eps: -1}}),
		marshalReq(t, SolveRequest{Graph: g, Options: OptionsWire{Root: 10_000}}),
	}
	for round := 0; round < 2; round++ {
		for i, body := range bad {
			if code, jr, err := r.post(context.Background(), body); err != nil || code != http.StatusBadRequest {
				t.Fatalf("bad body %d round %d: %d %+v %v", i, round, code, jr, err)
			}
			if _, ok := s.aliases.Get(alias.Of(body)); ok {
				t.Fatalf("bad body %d learned an alias", i)
			}
		}
	}
	if n := r.decodes.Load(); n != int64(2*len(bad)) {
		t.Fatalf("%d decodes, want %d: a 400 body must never be aliased", n, 2*len(bad))
	}
	if st := s.Stats(); st.AliasHits != 0 || st.Submitted != 0 {
		t.Fatalf("stats %+v, want no alias hit and no counted submission", st)
	}
}

// TestAliasDrainingRejects: a draining service answers an aliased body
// with the same 503 + Retry-After the full path gives, without decoding.
func TestAliasDrainingRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	r := newAliasRig(t, s)
	body := marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, 74)), Wait: true})
	r.mustPost(t, body, http.StatusOK)
	drain(t, s)

	req, err := http.NewRequest(http.MethodPost, r.srv.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := r.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("aliased body while draining: %d (Retry-After %q), want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n := r.decodes.Load(); n != 1 {
		t.Fatalf("%d decodes, want 1: the draining answer must come from the alias", n)
	}
	if st := s.Stats(); st.AliasHits != 1 || st.RejectedDraining != 1 || st.Submitted != 2 {
		t.Fatalf("stats %+v, want 1 alias hit, 1 draining rejection, 2 submissions", st)
	}
}

// TestAliasInflightHonoursWaitAndAbandon: a body aliased onto a queued job
// keeps its wait=true semantics — it blocks until the job is terminal —
// and counts as a cancelable watcher, so its disconnect is an Abandon.
func TestAliasInflightHonoursWaitAndAbandon(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	started, step := stepGate(s)
	defer drain(t, s)
	r := newAliasRig(t, s)
	hold := func(seed int64) {
		r.mustPost(t, marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, seed))}), http.StatusAccepted)
		<-started
	}

	// Wait honoured: both waiters block on the queued job and return 200
	// done once it is solved (a non-waiting request would return 202).
	hold(75)
	b := marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, 76)), Wait: true})
	type answer struct {
		code int
		jr   JobResponse
		err  error
	}
	answers := make(chan answer, 2)
	waiter := func(ctx context.Context) {
		code, jr, err := r.post(ctx, b)
		answers <- answer{code, jr, err}
	}
	go waiter(context.Background())
	eventually(t, "the first waiter's job to queue", func() bool { return s.Stats().QueueDepth == 1 })
	go waiter(context.Background())
	eventually(t, "the aliased waiter to coalesce", func() bool { return s.Stats().Coalesced == 1 })
	if n := r.decodes.Load(); n != 2 {
		t.Fatalf("%d decodes, want 2: the second waiter must come through the alias", n)
	}
	step <- struct{}{} // held job
	step <- struct{}{} // b
	got := []answer{<-answers, <-answers}
	for _, a := range got {
		if a.err != nil || a.code != http.StatusOK || a.jr.Status != StatusDone {
			t.Fatalf("waiter: %d %+v %v, want 200 done", a.code, a.jr, a.err)
		}
	}
	if got[0].jr.Cached == got[1].jr.Cached || !bytes.Equal(got[0].jr.Result, got[1].jr.Result) {
		t.Fatalf("waiters %+v / %+v: want one solve and one coalesced waiter with equal bytes", got[0].jr, got[1].jr)
	}

	// Abandon honoured: the aliased waiter is a watcher of its own, so the
	// queued job survives the first disconnect and is canceled by the last.
	hold(77)
	c := marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, 78)), Wait: true})
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel1()
	defer cancel2()
	done := make(chan struct{}, 2)
	for _, ctx := range []context.Context{ctx1, ctx2} {
		go func() {
			r.post(ctx, c)
			done <- struct{}{}
		}()
		if ctx == ctx1 {
			eventually(t, "the first waiter's job to queue", func() bool { return s.Stats().QueueDepth == 1 })
		}
	}
	eventually(t, "the aliased waiter to coalesce", func() bool { return s.Stats().Coalesced == 2 })
	if st := s.Stats(); st.AliasHits != 2 || r.decodes.Load() != 4 {
		t.Fatalf("alias hits %d, decodes %d: want 2 and 4", st.AliasHits, r.decodes.Load())
	}
	s.mu.Lock()
	jc := s.queues[PriorityBatch][0]
	s.mu.Unlock()
	watchers := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return jc.watchers
	}
	if w := watchers(); w != 2 {
		t.Fatalf("queued job has %d watchers, want 2", w)
	}
	cancel1()
	<-done
	eventually(t, "the first disconnect to abandon", func() bool { return watchers() == 1 })
	if snap := s.snapshot(jc); snap.Status != StatusQueued {
		t.Fatalf("job with a remaining aliased watcher was dropped: %+v", snap)
	}
	cancel2()
	<-done
	eventually(t, "the aliased waiter's disconnect to cancel the job", func() bool {
		return s.Stats().Classes["batch"].Canceled == 1
	})
	waitJob(t, jc)
	if !errors.Is(jc.err, ErrCanceled) {
		t.Fatalf("job abandoned by both watchers: err %v, want ErrCanceled", jc.err)
	}
	step <- struct{}{} // held job
}

// TestAliasMissFallsBackToDecode: an alias whose key has left every tier —
// evicted from the memory cache with no store, or quarantined in the store
// — resolves nothing; the request decodes in full and solves again.
func TestAliasMissFallsBackToDecode(t *testing.T) {
	t.Run("evicted", func(t *testing.T) {
		s := New(Config{Workers: 1, CacheEntries: 1})
		defer drain(t, s)
		r := newAliasRig(t, s)
		a := marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, 79)), Wait: true})
		b := marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, 80)), Wait: true})
		want := r.mustPost(t, a, http.StatusOK).Result
		r.mustPost(t, b, http.StatusOK) // evicts a
		again := r.mustPost(t, a, http.StatusOK)
		if again.Cached || !bytes.Equal(again.Result, want) {
			t.Fatalf("evicted key: %+v, want a fresh solve with the same bytes", again)
		}
		if st := s.Stats(); st.Solves != 3 || st.AliasHits != 0 || r.decodes.Load() != 3 {
			t.Fatalf("stats %+v, decodes %d: want 3 solves, 3 decodes, no alias hit", st, r.decodes.Load())
		}
	})
	t.Run("quarantined", func(t *testing.T) {
		// Heap-copy reads: every store hit reads the file, so the armed
		// read fault below is met (a warm mapping would skip the read).
		disk, err := store.OpenWith(t.TempDir(), store.Options{NoMmap: true})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Workers: 1, CacheEntries: 1, Store: disk})
		defer drain(t, s)
		r := newAliasRig(t, s)
		a := marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, 81)), Wait: true})
		b := marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, 82)), Wait: true})
		want := r.mustPost(t, a, http.StatusOK).Result
		r.mustPost(t, b, http.StatusOK) // evicts a from memory; a stays stored
		if err := s.store.Flush(); err != nil {
			t.Fatal(err)
		}
		// a via the alias from the store, then b the same way, which
		// evicts a from memory again.
		r.mustPost(t, a, http.StatusOK)
		r.mustPost(t, b, http.StatusOK)
		if st := s.Stats(); st.StoreHits != 2 || st.AliasHits != 2 || r.decodes.Load() != 2 {
			t.Fatalf("stats %+v, decodes %d: want 2 store hits through the alias", st, r.decodes.Load())
		}
		// The next store read of a fails and quarantines the entry.
		armFaults(t, "store.read:error,count=1")
		again := r.mustPost(t, a, http.StatusOK)
		if again.Cached || !bytes.Equal(again.Result, want) {
			t.Fatalf("quarantined key: %+v, want a fresh solve with the same bytes", again)
		}
		st := s.Stats()
		if st.Solves != 3 || st.AliasHits != 2 || r.decodes.Load() != 3 || st.Store.Quarantined != 1 {
			t.Fatalf("stats %+v / store %+v, decodes %d: want the quarantined key decoded and solved again",
				st, st.Store, r.decodes.Load())
		}
	})
}

// TestAliasTrailingBytes: the full path decodes only the first JSON value,
// so a body with trailing bytes is served as before (and its digest,
// trailing bytes included, aliases only that exact body); a body whose
// first value is malformed stays a 400.
func TestAliasTrailingBytes(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	r := newAliasRig(t, s)
	body := marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, 83)), Wait: true})
	trailing := append(slices.Clone(body), " trailing garbage"...)
	first := r.mustPost(t, trailing, http.StatusOK)
	if again := r.mustPost(t, trailing, http.StatusOK); !again.Cached || !bytes.Equal(again.Result, first.Result) {
		t.Fatalf("aliased trailing-bytes body: %+v", again)
	}
	if plain := r.mustPost(t, body, http.StatusOK); !plain.Cached || !bytes.Equal(plain.Result, first.Result) {
		t.Fatalf("same request without the trailing bytes: %+v", plain)
	}
	if n := r.decodes.Load(); n != 2 {
		t.Fatalf("%d decodes, want 2 (one per distinct body)", n)
	}
	r.mustPost(t, append([]byte("garbage "), body...), http.StatusBadRequest)
}

// TestAliasConcurrentResubmissions: many clients posting one body at once
// run one solve and all receive its bytes, whichever path — full decode or
// alias — each request took.
func TestAliasConcurrentResubmissions(t *testing.T) {
	s := New(Config{Workers: 2})
	defer drain(t, s)
	r := newAliasRig(t, s)
	body := marshalReq(t, SolveRequest{Graph: WireGraph(testGraph(t, 84)), Wait: true})
	const clients = 16
	results := make(chan []byte, clients)
	for c := 0; c < clients; c++ {
		go func() {
			code, jr, err := r.post(context.Background(), body)
			if err != nil || code != http.StatusOK || jr.Status != StatusDone {
				t.Errorf("client: %d %+v %v", code, jr, err)
			}
			results <- jr.Result
		}()
	}
	first := <-results
	for c := 1; c < clients; c++ {
		if got := <-results; !bytes.Equal(got, first) {
			t.Fatal("a concurrent client received different result bytes")
		}
	}
	st := s.Stats()
	if st.Solves != 1 || st.Submitted != clients || st.Hits() != clients-1 {
		t.Fatalf("stats %+v, want 1 solve and %d hits of %d submissions", st, clients-1, clients)
	}
	if d := r.decodes.Load(); d+st.AliasHits != clients {
		t.Fatalf("%d decodes + %d alias hits, want %d requests", d, st.AliasHits, clients)
	}
}
