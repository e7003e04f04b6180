package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"twoecss/internal/ecss"
	"twoecss/internal/faults"
)

func armFaults(t *testing.T, spec string) {
	t.Helper()
	if err := faults.Arm(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
}

// stepGate installs a testJobStart hook on a one-worker service: every job
// announces its id on the returned channel, then blocks until the test sends
// one token on step. This makes pickup order observable and controllable.
func stepGate(s *Service) (started chan string, step chan struct{}) {
	started = make(chan string, 16)
	step = make(chan struct{}, 16)
	s.testJobStart = func(j *Job) {
		started <- j.ID()
		<-step
	}
	return started, step
}

func TestPriorityOrderAtPickup(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	started, step := stepGate(s)
	defer drain(t, s)

	j1, _, err := s.Submit(testGraph(t, 30), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if id := <-started; id != j1.ID() {
		t.Fatalf("worker started %s, want %s", id, j1.ID())
	}
	// Queue one job per class, lowest first, while the worker is held.
	jB, _, err := s.SubmitWith(testGraph(t, 31), ecss.DefaultOptions(), Admit{Priority: PriorityBackground})
	if err != nil {
		t.Fatal(err)
	}
	jT, _, err := s.SubmitWith(testGraph(t, 32), ecss.DefaultOptions(), Admit{Priority: PriorityBatch})
	if err != nil {
		t.Fatal(err)
	}
	jI, _, err := s.SubmitWith(testGraph(t, 33), ecss.DefaultOptions(), Admit{Priority: PriorityInteractive})
	if err != nil {
		t.Fatal(err)
	}
	step <- struct{}{} // release j1; the worker must pop by class, not FIFO
	want := []*Job{jI, jT, jB}
	for _, wj := range want {
		if id := <-started; id != wj.ID() {
			t.Fatalf("pickup order: got %s, want %s (%s)", id, wj.ID(), wj.priority)
		}
		step <- struct{}{}
	}
	for _, j := range []*Job{j1, jB, jT, jI} {
		waitJob(t, j)
	}
}

func TestDeadlineExpiredAtWorkerPickup(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	started, step := stepGate(s)
	defer drain(t, s)

	j1, _, err := s.Submit(testGraph(t, 34), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, _, err := s.SubmitWith(testGraph(t, 35), ecss.DefaultOptions(),
		Admit{Priority: PriorityBatch, Deadline: time.Now().Add(30 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // let j2 expire while queued
	step <- struct{}{}
	waitJob(t, j2)
	snap := s.snapshot(j2)
	if snap.Status != StatusFailed || !strings.Contains(snap.Error, "deadline") {
		t.Fatalf("expired job snapshot %+v, want explicit deadline failure", snap)
	}
	if !errors.Is(j2.err, ErrDeadlineExceeded) {
		t.Fatalf("expired job error %v, want ErrDeadlineExceeded", j2.err)
	}
	waitJob(t, j1)
	st := s.Stats()
	if st.Classes["batch"].Expired != 1 {
		t.Fatalf("classes %+v, want 1 batch expiry", st.Classes)
	}
	if st.Solves != 1 {
		t.Fatalf("got %d solves, want 1 — an expired job must never reach the pipeline", st.Solves)
	}
}

func TestDeadlineDeadOnArrivalButCacheStillServes(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	g := testGraph(t, 36)

	past := Admit{Priority: PriorityBatch, Deadline: time.Now().Add(-time.Second)}
	if _, _, err := s.SubmitWith(g, ecss.DefaultOptions(), past); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("DOA submit err %v, want ErrDeadlineExceeded", err)
	}

	j, _, err := s.Submit(g, ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	// A result on hand is served instantly; the deadline is moot then.
	j2, hit, err := s.SubmitWith(g, ecss.DefaultOptions(), past)
	if err != nil || !hit || j2 != j {
		t.Fatalf("cached submit with past deadline: job=%v hit=%v err=%v", j2, hit, err)
	}
}

func TestShedLowerPriorityWhenFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	started, step := stepGate(s)
	defer drain(t, s)

	j1, _, err := s.Submit(testGraph(t, 37), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	jB, _, err := s.SubmitWith(testGraph(t, 38), ecss.DefaultOptions(), Admit{Priority: PriorityBackground})
	if err != nil {
		t.Fatalf("queueing background submit rejected: %v", err)
	}
	// Queue is full; an interactive arrival sheds the background job.
	jI, _, err := s.SubmitWith(testGraph(t, 39), ecss.DefaultOptions(), Admit{Priority: PriorityInteractive})
	if err != nil {
		t.Fatalf("interactive submit over full queue rejected: %v", err)
	}
	waitJob(t, jB)
	if !errors.Is(jB.err, ErrShed) {
		t.Fatalf("shed job error %v, want ErrShed", jB.err)
	}
	// Full again with only an interactive job queued: nothing outranks, so
	// both a background and another interactive arrival are rejected.
	if _, _, err := s.SubmitWith(testGraph(t, 40), ecss.DefaultOptions(), Admit{Priority: PriorityBackground}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("background into full queue: %v, want ErrQueueFull", err)
	}
	if _, _, err := s.SubmitWith(testGraph(t, 41), ecss.DefaultOptions(), Admit{Priority: PriorityInteractive}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("interactive cannot shed its own class: %v, want ErrQueueFull", err)
	}
	st := s.Stats()
	if st.Classes["background"].Shed != 1 ||
		st.Classes["background"].RejectedFull != 1 ||
		st.Classes["interactive"].RejectedFull != 1 {
		t.Fatalf("classes %+v", st.Classes)
	}
	step <- struct{}{} // release j1 so jI can run
	step <- struct{}{} // and jI itself
	waitJob(t, j1)
	waitJob(t, jI)
	if jI.err != nil {
		t.Fatalf("interactive job failed: %v", jI.err)
	}
}

func TestShedExpiredBeforeSheddingLive(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	started, step := stepGate(s)
	defer drain(t, s)

	j1, _, err := s.Submit(testGraph(t, 42), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	jExp, _, err := s.SubmitWith(testGraph(t, 43), ecss.DefaultOptions(),
		Admit{Priority: PriorityBatch, Deadline: time.Now().Add(20 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	// Same class, no priority edge: admission still succeeds because the
	// expired job is dropped first.
	j3, _, err := s.SubmitWith(testGraph(t, 44), ecss.DefaultOptions(), Admit{Priority: PriorityBatch})
	if err != nil {
		t.Fatalf("submit over expired queue entry rejected: %v", err)
	}
	waitJob(t, jExp)
	if !errors.Is(jExp.err, ErrDeadlineExceeded) {
		t.Fatalf("expired job error %v, want ErrDeadlineExceeded", jExp.err)
	}
	st := s.Stats()
	if st.Classes["batch"].Expired != 1 || st.Classes["batch"].Shed != 0 {
		t.Fatalf("classes %+v, want expiry not shed", st.Classes)
	}
	step <- struct{}{}
	step <- struct{}{}
	waitJob(t, j1)
	waitJob(t, j3)
}

func TestAbandonCancelsQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	started, step := stepGate(s)
	defer drain(t, s)

	j1, _, err := s.Submit(testGraph(t, 45), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Sole cancelable submitter abandons: the queued job is dropped.
	j2, _, err := s.SubmitWith(testGraph(t, 46), ecss.DefaultOptions(),
		Admit{Priority: PriorityBatch, Cancelable: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Abandon(j2)
	waitJob(t, j2)
	if !errors.Is(j2.err, ErrCanceled) {
		t.Fatalf("abandoned job error %v, want ErrCanceled", j2.err)
	}
	if _, ok := s.JobInfo(j2.ID()); !ok {
		t.Fatal("canceled job no longer addressable")
	}
	if st := s.Stats(); st.QueueDepth != 0 || st.Classes["batch"].Canceled != 1 {
		t.Fatalf("stats queue=%d classes=%+v, want freed slot and 1 cancel", st.QueueDepth, st.Classes)
	}

	// Two cancelable watchers: the job survives the first abandon.
	g3 := testGraph(t, 47)
	j3, _, err := s.SubmitWith(g3, ecss.DefaultOptions(), Admit{Priority: PriorityBatch, Cancelable: true})
	if err != nil {
		t.Fatal(err)
	}
	if j3b, hit, err := s.SubmitWith(g3, ecss.DefaultOptions(), Admit{Priority: PriorityBatch, Cancelable: true}); err != nil || !hit || j3b != j3 {
		t.Fatalf("coalesce onto queued job: job=%v hit=%v err=%v", j3b, hit, err)
	}
	s.Abandon(j3)
	if snap := s.snapshot(j3); snap.Status != StatusQueued {
		t.Fatalf("job with a remaining watcher was dropped: %+v", snap)
	}
	s.Abandon(j3)
	waitJob(t, j3)
	if !errors.Is(j3.err, ErrCanceled) {
		t.Fatalf("job abandoned by both watchers: err %v, want ErrCanceled", j3.err)
	}

	// A non-cancelable submission pins the job against autocancel for good.
	g4 := testGraph(t, 48)
	j4, _, err := s.SubmitWith(g4, ecss.DefaultOptions(), Admit{Priority: PriorityBatch, Cancelable: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := s.Submit(g4, ecss.DefaultOptions()); err != nil || !hit {
		t.Fatalf("pinning coalesce: hit=%v err=%v", hit, err)
	}
	s.Abandon(j4)
	if snap := s.snapshot(j4); snap.Status != StatusQueued {
		t.Fatalf("pinned job was dropped: %+v", snap)
	}
	step <- struct{}{} // j1
	step <- struct{}{} // j4
	waitJob(t, j1)
	waitJob(t, j4)
	if j4.err != nil {
		t.Fatalf("pinned job failed: %v", j4.err)
	}
}

func TestPanicRecoveredAndRetried(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	armFaults(t, "solve.stage:panic,count=1")

	j, _, err := s.Submit(testGraph(t, 49), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	snap := s.snapshot(j)
	if snap.Status != StatusDone {
		t.Fatalf("job after one recovered panic: %+v, want done via retry", snap)
	}
	st := s.Stats()
	if st.PanicsRecovered != 1 || st.Retries != 1 {
		t.Fatalf("stats %+v, want 1 recovered panic and 1 retry", st)
	}
	if st.Solves != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats %+v — a retried job must count as one solve", st)
	}
	// The worker survived and solves the next job.
	faults.Disarm()
	j2, _, err := s.Submit(testGraph(t, 50), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)
	if j2.err != nil {
		t.Fatalf("post-panic solve failed: %v", j2.err)
	}

	// A panic before the network is even acquired (solve.pre) must recover
	// identically — the recovery window covers the whole attempt.
	armFaults(t, "solve.pre:panic,count=1")
	j3, _, err := s.Submit(testGraph(t, 61), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j3)
	if snap := s.snapshot(j3); snap.Status != StatusDone {
		t.Fatalf("job after pre-acquire panic: %+v, want done via retry", snap)
	}
}

func TestPersistentFaultExhaustsRetryBudget(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	armFaults(t, "solve.pre:error=unstable")

	j, _, err := s.Submit(testGraph(t, 51), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	snap := s.snapshot(j)
	if snap.Status != StatusFailed || !strings.Contains(snap.Error, "fault injected at solve.pre") {
		t.Fatalf("job under persistent fault: %+v", snap)
	}
	st := s.Stats()
	if st.Retries != 1 || st.Solves != 1 || st.Failed != 1 {
		t.Fatalf("stats %+v, want exactly one retry then failure", st)
	}
	if fp := st.Faults["solve.pre"]; fp.Fires != 2 {
		t.Fatalf("fault point stats %+v, want 2 fires (initial + retry)", st.Faults)
	}
}

// postSolveRaw is postSolve plus response headers, for contract tests that
// pin status codes and Retry-After.
func postSolveRaw(t *testing.T, srv *httptest.Server, req SolveRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestHTTPQueueFullContract pins the load-shedding wire contract: a full
// queue is 429 Too Many Requests with a positive integer Retry-After, and a
// draining service is 503 with the same header — never a bare generic error.
func TestHTTPQueueFullContract(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	started, step := stepGate(s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if resp := postSolveRaw(t, srv, SolveRequest{Graph: WireGraph(testGraph(t, 52))}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-started
	if resp := postSolveRaw(t, srv, SolveRequest{Graph: WireGraph(testGraph(t, 53))}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queueing submit: %d", resp.StatusCode)
	}
	resp := postSolveRaw(t, srv, SolveRequest{Graph: WireGraph(testGraph(t, 54))})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit: %d, want 429", resp.StatusCode)
	}
	checkRetryAfter := func(resp *http.Response) {
		t.Helper()
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || secs < 1 || secs > 60 {
			t.Fatalf("Retry-After %q, want integer seconds in [1,60]", resp.Header.Get("Retry-After"))
		}
	}
	checkRetryAfter(resp)
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
		t.Fatalf("429 body %v, want an error message", body)
	}

	step <- struct{}{}
	step <- struct{}{}
	drain(t, s)
	resp = postSolveRaw(t, srv, SolveRequest{Graph: WireGraph(testGraph(t, 55))})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d, want 503", resp.StatusCode)
	}
	checkRetryAfter(resp)
}

func TestHTTPAdmissionWireValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := WireGraph(testGraph(t, 56))
	if code, _ := postSolve(t, srv, SolveRequest{Graph: g, Priority: "urgent"}); code != http.StatusBadRequest {
		t.Fatalf("bogus priority: code=%d, want 400", code)
	}
	if code, _ := postSolve(t, srv, SolveRequest{Graph: g, DeadlineMS: -5}); code != http.StatusBadRequest {
		t.Fatalf("negative deadline: code=%d, want 400", code)
	}
	if code, resp := postSolve(t, srv, SolveRequest{Graph: g, Priority: "interactive", Wait: true}); code != http.StatusOK || resp.Status != StatusDone {
		t.Fatalf("interactive solve: code=%d resp=%+v", code, resp)
	}
}

// TestHTTPDeadlinePropagated: a deadline_ms on the wire becomes a queue
// deadline; when the worker reaches the job too late, the client gets an
// explicit deadline error, not a silent drop.
func TestHTTPDeadlinePropagated(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	started, step := stepGate(s)
	defer drain(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if resp := postSolveRaw(t, srv, SolveRequest{Graph: WireGraph(testGraph(t, 57))}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-started
	resp := postSolveRaw(t, srv, SolveRequest{Graph: WireGraph(testGraph(t, 58)), DeadlineMS: 30})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadline submit: %d", resp.StatusCode)
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	step <- struct{}{}
	step <- struct{}{}
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, ok := s.JobInfo(jr.JobID)
		if ok && info.Status == StatusFailed {
			if !strings.Contains(info.Error, "deadline") {
				t.Fatalf("expired job error %q, want a deadline message", info.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never expired: %+v", jr.JobID, info)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPDisconnectCancelsQueuedJob: a waiting client that goes away takes
// its queued job with it — the slot frees and the class counter records a
// cancellation, not a failure.
func TestHTTPDisconnectCancelsQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	started, step := stepGate(s)
	defer drain(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if resp := postSolveRaw(t, srv, SolveRequest{Graph: WireGraph(testGraph(t, 59))}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-started

	body, err := json.Marshal(SolveRequest{Graph: WireGraph(testGraph(t, 60)), Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, rerr := srv.Client().Do(req)
		if rerr == nil {
			resp.Body.Close()
		}
		errc <- rerr
	}()
	// Wait until the waiter's job is queued, then hang up.
	waitUntil := time.Now().Add(10 * time.Second)
	for s.Stats().QueueDepth == 0 {
		if time.Now().After(waitUntil) {
			t.Fatal("waiter's job never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-errc
	for s.Stats().Classes["batch"].Canceled == 0 {
		if time.Now().After(waitUntil) {
			t.Fatalf("disconnect did not cancel the queued job: %+v", s.Stats().Classes)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := s.Stats(); st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after cancel, want the slot freed", st.QueueDepth)
	}
	step <- struct{}{}
}
