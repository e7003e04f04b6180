// Package service implements the long-running 2-ECSS solver service that
// fronts the paper's pipeline with a serving layer: a bounded priority job
// queue with deadline- and class-aware admission control (admission.go), a
// configurable worker pool executing solves on pooled congest Networks
// (NetworkPool) with panic recovery and bounded retry, an in-flight
// coalescing table and a content-addressed LRU result cache keyed by the
// canonical graph digest plus solve options, per-job status/progress, and
// graceful drain on shutdown. cmd/ecssd exposes it over an HTTP JSON API
// (http.go) and cmd/loadgen drives it; DESIGN.md §7 and §9 describe the
// architecture and the fault model.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"twoecss/internal/alias"
	"twoecss/internal/congest"
	"twoecss/internal/ecss"
	"twoecss/internal/faults"
	"twoecss/internal/graph"
	"twoecss/internal/obs"
	"twoecss/internal/store"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// QueueDepth bounds the jobs admitted but not yet picked up by a
	// worker, across all priority classes; beyond it the shed policy runs
	// and Submit may reject with ErrQueueFull (default 64).
	QueueDepth int
	// Workers is the number of solver goroutines (default GOMAXPROCS).
	Workers int
	// CacheEntries bounds the content-addressed result cache (0 selects
	// the default 512; negative disables caching — results then live only
	// on their job).
	CacheEntries int
	// PoolEntries bounds the idle NetworkPool (default Workers).
	PoolEntries int
	// NetWorkers is ignored.
	//
	// Deprecated: the engine runs every solve sequentially; parallelism
	// lives at the job level (Workers). NetWorkers is kept only so the
	// separate perfbench module, which sets it, keeps compiling; code in
	// this module must not use it.
	NetWorkers int
	// Store, when non-nil, is the disk-backed result store the in-memory
	// cache writes through to. On New the most recently used entries
	// pre-warm the memory cache (up to CacheEntries); memory-cache misses
	// fall back to the store before solving. The service takes ownership:
	// Drain flushes pending writes and closes it.
	Store *store.Store
	// Obs is the process observability hub the service publishes lifecycle
	// events and metrics into (nil: the service creates a private one, so
	// events and /metrics always work). Share one Obs between the store and
	// the service so a single firehose carries both subsystems.
	Obs *obs.Obs
	// ProfileRounds bounds the per-job engine round profile retained next to
	// the trace and served at GET /v1/jobs/{id}/profile (default 512 samples;
	// negative disables profiling). Long solves are thinned by stride, so the
	// profile is an evenly spaced timeline whatever the round count.
	ProfileRounds int
	// SLOLatency is the solve-latency SLO threshold: a solve counting as
	// "good" must reach a terminal state within it (default 2s). The
	// objectives themselves are fixed (99% latency, 99.9% availability);
	// burn rates are exported per obs.DefaultSLOWindows.
	SLOLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.PoolEntries == 0 {
		c.PoolEntries = c.Workers
	}
	if c.ProfileRounds == 0 {
		c.ProfileRounds = 512
	}
	if c.SLOLatency <= 0 {
		c.SLOLatency = 2 * time.Second
	}
	return c
}

// Status is a job lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Job is one admitted solve. All fields are guarded by the owning
// Service's mutex; external readers use Service.JobInfo / the Done channel.
type Job struct {
	id    string
	key   Key
	ghash [32]byte
	// req is the request id of the submission that created the job (minted
	// at admission or propagated from the router); stamped on every event
	// the job emits so a trace reads as one client request end to end.
	req string

	g   *graph.Graph // released once the solve starts
	opt ecss.Options

	priority Priority
	deadline time.Time // zero: none
	// watchers counts cancelable submitters still waiting; autocancel is
	// cleared forever once any non-cancelable submission attaches (see
	// Admit.Cancelable and Service.Abandon).
	watchers   int
	autocancel bool

	status   Status
	phase    string
	created  time.Time
	started  time.Time
	finished time.Time
	// resultJSON is the canonical wire encoding, marshaled once and shared
	// by every requester. The *ecss.Result itself is not retained: its edge
	// ids are relative to the (possibly pooled-twin) graph the solve ran
	// on, not necessarily the submitter's.
	resultJSON []byte
	// view pins the store-backed bytes resultJSON aliases on jobs adopted
	// from the disk store (zero for solved jobs, whose bytes are private).
	// The job record owns the pin: it is released — and resultJSON cleared
	// — when the job leaves the jobs table (retire overflow). Handlers that
	// write the bytes after dropping s.mu take their own Retain.
	view store.View
	err  error
	done chan struct{}
	// profile is the engine round profile of the job's solve (nil while the
	// job is queued or running, for jobs served without a solve, and with
	// profiling disabled). Retained alongside the trace until the job record
	// itself is dropped.
	profile *JobProfile
}

// ID returns the job's stable identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state (done or failed).
// Jobs returned from a cache or coalescing hit may already be closed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Stats is a snapshot of the service counters.
type Stats struct {
	// Submitted counts every Submit call that passed input validation,
	// including ones rejected by a full queue or a draining service.
	Submitted int64 `json:"submitted"`
	// Completed and Failed count jobs whose solve reached a terminal state;
	// Solves counts jobs that executed the pipeline (Completed + Failed —
	// a job retried after a recovered panic still counts once; Retries
	// tallies the extra attempts). Jobs shed, expired, or canceled while
	// queued appear in Classes, not here.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Solves    int64 `json:"solves"`
	// Retries counts solve attempts re-run after a retryable failure
	// (recovered panic or injected fault); PanicsRecovered counts solver
	// panics converted into per-job errors instead of killing the worker.
	Retries         int64 `json:"retries"`
	PanicsRecovered int64 `json:"panics_recovered"`
	// CacheHits counts submissions served from the in-memory result cache
	// (including entries pre-warmed from the store); Coalesced counts
	// submissions attached to an identical in-flight job; StoreHits counts
	// submissions served by reading the disk store on a memory-cache miss.
	CacheHits int64 `json:"cache_hits"`
	Coalesced int64 `json:"coalesced"`
	StoreHits int64 `json:"store_hits"`
	// AliasHits counts submissions answered by body digest (DESIGN.md
	// §7.6): byte-identical resubmissions of a body the service already
	// admitted, served — or rejected as draining — without decode, graph
	// build or hash. Each is also counted in Submitted and in the counter
	// of the tier that answered it.
	AliasHits int64 `json:"alias_hits"`
	// RejectedFull / RejectedDraining count admission failures.
	RejectedFull     int64 `json:"rejected_full"`
	RejectedDraining int64 `json:"rejected_draining"`

	QueueDepth   int `json:"queue_depth"`
	Inflight     int `json:"inflight"`
	CacheEntries int `json:"cache_entries"`
	// Classes breaks queue traffic down per priority class, keyed by
	// Priority.String().
	Classes map[string]ClassStats `json:"classes"`
	Pool    NetworkPoolStats      `json:"pool"`
	// Store mirrors the disk store's counters; nil when the service runs
	// without persistence.
	Store *store.Stats `json:"store,omitempty"`
	// Faults mirrors the armed fault-injection plan's per-point counters;
	// nil when no plan is armed.
	Faults map[string]faults.PointStats `json:"faults,omitempty"`
	// Engine aggregates the congest engine's cost counters — the paper's own
	// round/message measures — across every solve attempt this process ran.
	Engine EngineStats `json:"engine"`
}

// EngineStats is the process-lifetime engine cost ledger. The router sums
// these across shards (shard-tagged) from each shard's /v1/stats.
type EngineStats struct {
	SimulatedRounds int64 `json:"simulated_rounds"`
	ChargedRounds   int64 `json:"charged_rounds"`
	Messages        int64 `json:"messages"`
	Words           int64 `json:"words"`
	// ProfiledSolves counts solves that retained a round profile.
	ProfiledSolves int64 `json:"profiled_solves"`
}

// Hits is the total number of submissions served without a solve.
func (s Stats) Hits() int64 { return s.CacheHits + s.Coalesced + s.StoreHits }

var (
	// ErrQueueFull reports that admission failed because the queue is at
	// QueueDepth and the shed policy found no expired or lower-priority
	// queued job to drop.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining reports that the service no longer accepts jobs.
	ErrDraining = errors.New("service: draining, not accepting jobs")
)

// retainFinished bounds how many terminal jobs that fell out of the result
// cache (failures, evictions, shed jobs) stay addressable via JobInfo.
const retainFinished = 256

// Solve retry policy: one retry after a retryable failure (recovered panic
// or injected fault), with exponential backoff from retryBackoffBase —
// bounded on both axes so a crashing solver degrades to fast per-job errors,
// never a retry storm.
const (
	maxSolveRetries  = 1
	retryBackoffBase = 25 * time.Millisecond
)

// Service is the solver service. Create with New, stop with Drain.
type Service struct {
	cfg   Config
	pool  *NetworkPool
	store *store.Store // nil: no persistence
	// o is the observability hub (never nil after New); solveHist is the
	// pickup-to-terminal solve latency histogram, created once at startup;
	// sloLatency and sloAvail are the declared solve SLOs (observe.go).
	o          *obs.Obs
	solveHist  *obs.Histogram
	sloLatency *obs.SLO
	sloAvail   *obs.SLO

	mu       sync.Mutex
	cond     *sync.Cond // signaled on enqueue and at drain
	seq      int64
	jobs     map[string]*Job
	inflight map[Key]*Job
	cache    *jobCache
	// aliases maps the digest of every admitted request body to what its
	// decode produced (http.go, DESIGN.md §7.6); self-locking, sized one
	// generation per CacheEntries, nil when caching is disabled.
	aliases *alias.Map[bodyAlias]
	retired []string // FIFO of terminal, uncached job ids still in jobs
	stats   Stats
	classes [numPriorities]ClassStats
	// queues holds the admitted-not-yet-running jobs, one FIFO per
	// priority class; qlen is their total length, bounded by QueueDepth.
	queues [numPriorities][]*Job
	qlen   int
	// ewmaSolveNs tracks the recent average solve wall time, feeding the
	// Retry-After hint.
	ewmaSolveNs float64
	draining    bool

	wg sync.WaitGroup

	// testJobStart, when set (tests only), runs at the top of every worker
	// job execution, before the solve.
	testJobStart func(*Job)
	// testDecode, when set (tests only), runs each time a solve body takes
	// the full decode path.
	testDecode func()
}

// New starts a service with cfg's sizing and its worker goroutines. With a
// configured Store, the memory cache is pre-warmed from the store's most
// recently used entries so a restart resumes at a warm hit ratio instead of
// a cold one.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		pool:     NewNetworkPool(cfg.PoolEntries),
		store:    cfg.Store,
		o:        cfg.Obs,
		jobs:     make(map[string]*Job),
		inflight: make(map[Key]*Job),
		cache:    newJobCache(cfg.CacheEntries),
		aliases:  alias.New[bodyAlias](cfg.CacheEntries),
	}
	if s.o == nil {
		s.o = obs.New()
	}
	s.cond = sync.NewCond(&s.mu)
	s.registerMetrics()
	if s.store != nil && cfg.CacheEntries > 0 {
		// Recent returns MRU-first; insert oldest-first so the memory
		// cache's LRU order mirrors the store's.
		warm := s.store.Recent(cfg.CacheEntries)
		s.mu.Lock()
		for i := len(warm) - 1; i >= 0; i-- {
			e := warm[i]
			s.adoptStoredLocked(Key(e.Key), e.GraphHash, e.View, "")
		}
		s.mu.Unlock()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// adoptStoredLocked wraps a pinned store view in a terminal job —
// addressable via JobInfo, served from the memory cache — without a solve
// and, on the mmap path, without copying the payload: the job takes
// ownership of the view's pin. req is the request id of the triggering
// submission ("" for pre-warm adoption at startup). Caller holds s.mu.
func (s *Service) adoptStoredLocked(key Key, ghash [32]byte, v store.View, req string) *Job {
	s.seq++
	now := time.Now()
	j := &Job{
		id:         fmt.Sprintf("j%08d", s.seq),
		key:        key,
		ghash:      ghash,
		req:        req,
		status:     StatusDone,
		created:    now,
		started:    now,
		finished:   now,
		resultJSON: v.Bytes(),
		view:       v,
		done:       closedDone,
	}
	s.jobs[j.id] = j
	if evicted := s.cache.put(key, j); evicted != nil {
		s.retire(evicted)
	}
	// The job is born terminal: one cached event is its whole trace, so a
	// per-job stream replays it and closes immediately.
	s.emit(obs.Event{Type: obs.EvJobCached, Job: j.id, Req: req, Key: keyPrefix(key), Terminal: true})
	return j
}

// closedDone is the pre-closed Done channel shared by jobs that were never
// queued (store adoptions): they are born terminal.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Config returns the effective (defaulted) configuration.
func (s *Service) Config() Config { return s.cfg }

// Draining reports whether Drain has begun: the service still finishes
// admitted work but rejects new submissions.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Submit admits a solve of g under opt at the default batch priority with
// no deadline. See SubmitWith.
func (s *Service) Submit(g *graph.Graph, opt ecss.Options) (*Job, bool, error) {
	return s.SubmitWith(g, opt, Admit{Priority: PriorityBatch})
}

// SubmitWith admits a solve of g under opt with adm's scheduling class and
// deadline, returning the job serving it plus whether it was a hit (served
// from the result cache or coalesced onto an identical in-flight job — in
// both cases the returned job may belong to an earlier submission, possibly
// of a different class). The caller must not mutate g after SubmitWith.
// Identity is content-addressed: structurally identical graphs dedupe
// regardless of how or in what edge order they were built.
//
// When the queue is at QueueDepth, admission sheds by policy before
// rejecting: expired queued jobs are dropped first (any class), then the
// youngest queued job of a class below adm.Priority; only if neither frees
// a slot does SubmitWith return ErrQueueFull. A deadline already in the
// past fails fast with ErrDeadlineExceeded (unless the result is on hand:
// cache and coalescing hits serve instantly and ignore the deadline).
func (s *Service) SubmitWith(g *graph.Graph, opt ecss.Options, adm Admit) (*Job, bool, error) {
	opt, ghash, err := s.prepare(g, opt, adm)
	if err != nil {
		return nil, false, err
	}
	return s.admit(keyFor(ghash, opt), ghash, g, opt, adm)
}

// prepare is the validate-and-hash half of SubmitWith — the work a body
// alias skips: it checks the instance and the admission fields, pins the
// execution knobs, and returns the options as solved plus the graph hash.
func (s *Service) prepare(g *graph.Graph, opt ecss.Options, adm Admit) (ecss.Options, [32]byte, error) {
	if opt.Eps <= 0 {
		return opt, [32]byte{}, fmt.Errorf("service: eps must be positive, got %g", opt.Eps)
	}
	if g == nil || g.N < 3 {
		return opt, [32]byte{}, errors.New("service: need a graph with at least 3 vertices")
	}
	if opt.Root < 0 || opt.Root >= g.N {
		return opt, [32]byte{}, fmt.Errorf("service: root %d out of range [0,%d)", opt.Root, g.N)
	}
	if adm.Priority < 0 || adm.Priority >= numPriorities {
		return opt, [32]byte{}, fmt.Errorf("service: priority %d out of range", adm.Priority)
	}
	opt.Progress = nil
	opt.StageStats = nil
	return opt, g.Hash(), nil
}

// admit counts a validated submission, serves it from lookupLocked when the
// result is in flight, cached or stored, and otherwise queues a new job.
func (s *Service) admit(key Key, ghash [32]byte, g *graph.Graph, opt ecss.Options, adm Admit) (*Job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countSubmittedLocked(adm.Priority)
	if j, err := s.lookupLocked(key, ghash, adm); j != nil || err != nil {
		return j, j != nil, err
	}
	now := time.Now()
	if !adm.Deadline.IsZero() && !now.Before(adm.Deadline) {
		s.classes[adm.Priority].Expired++
		s.emit(obs.Event{Type: obs.EvJobExpired, Req: adm.RequestID, Class: adm.Priority.String(),
			Err: "dead on arrival: " + ErrDeadlineExceeded.Error(), Terminal: true})
		return nil, false, ErrDeadlineExceeded
	}
	if s.qlen >= s.cfg.QueueDepth {
		s.shedExpiredLocked(now)
	}
	if s.qlen >= s.cfg.QueueDepth && !s.shedForLocked(adm.Priority) {
		s.stats.RejectedFull++
		s.classes[adm.Priority].RejectedFull++
		return nil, false, ErrQueueFull
	}
	s.seq++
	j := &Job{
		id:         fmt.Sprintf("j%08d", s.seq),
		key:        key,
		ghash:      ghash,
		req:        adm.RequestID,
		g:          g,
		opt:        opt,
		priority:   adm.Priority,
		deadline:   adm.Deadline,
		autocancel: adm.Cancelable,
		status:     StatusQueued,
		phase:      "queued",
		created:    now,
		done:       make(chan struct{}),
	}
	if adm.Cancelable {
		j.watchers = 1
	}
	s.jobs[j.id] = j
	s.inflight[key] = j
	s.enqueueLocked(j)
	// Emitted under s.mu, which a worker needs to pop: job.admitted always
	// precedes the job's own job.started on the bus.
	s.emit(obs.Event{Type: obs.EvJobAdmitted, Job: j.id, Req: j.req, Class: adm.Priority.String(), Key: keyPrefix(key)})
	return j, false, nil
}

// submitAlias admits a request by a learned body alias: key, ghash and the
// admission fields are what the full path produced for the same bytes. It
// answers only what lookupLocked answers — a coalesce, a cache or store
// hit, or a draining rejection — and returns (nil, nil) on a miss, without
// counting the submission: the caller then decodes the body and admits it
// through the full path, which counts it once.
func (s *Service) submitAlias(key Key, ghash [32]byte, adm Admit) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lookupLocked(key, ghash, adm)
	if j == nil && err == nil {
		return nil, nil
	}
	s.countSubmittedLocked(adm.Priority)
	s.stats.AliasHits++
	return j, err
}

func (s *Service) countSubmittedLocked(p Priority) {
	s.stats.Submitted++
	s.classes[p].Submitted++
}

// lookupLocked is the one admission lookup both the full path and the body
// alias run: a draining service rejects; otherwise the key is served from
// the in-flight table, then the memory cache, then the disk store. It
// returns (nil, nil) when none holds the key. Caller holds s.mu; the store
// read drops it and re-runs the checks afterwards, since the world may
// have moved meanwhile.
func (s *Service) lookupLocked(key Key, ghash [32]byte, adm Admit) (*Job, error) {
	if s.draining {
		s.stats.RejectedDraining++
		return nil, ErrDraining
	}
	if j := s.hitLocked(key, adm); j != nil || s.store == nil {
		return j, nil
	}
	// The store lookup touches disk; release the admission mutex around it
	// so concurrent Submits, Stats, and progress callbacks are never
	// serialized behind a file read. A hit returns a pinned zero-copy view;
	// every path that does not adopt it must release the pin.
	s.mu.Unlock()
	v, found := s.store.GetView([32]byte(key))
	s.mu.Lock()
	if s.draining {
		v.Release()
		s.stats.RejectedDraining++
		return nil, ErrDraining
	}
	if j := s.hitLocked(key, adm); j != nil {
		v.Release()
		return j, nil
	}
	if !found {
		return nil, nil
	}
	s.stats.StoreHits++
	return s.adoptStoredLocked(key, ghash, v, adm.RequestID), nil
}

// hitLocked serves key from an identical in-flight job (coalescing) or the
// memory cache, or returns nil. Caller holds s.mu.
func (s *Service) hitLocked(key Key, adm Admit) *Job {
	if j, ok := s.inflight[key]; ok {
		s.stats.Coalesced++
		s.attachLocked(j, adm)
		return j
	}
	if j, ok := s.cache.get(key); ok {
		s.stats.CacheHits++
		s.emit(obs.Event{Type: obs.EvJobCached, Job: j.id, Req: adm.RequestID, Key: keyPrefix(key), Terminal: true})
		return j
	}
	return nil
}

// attachLocked records a coalescing submitter's cancellation interest on an
// in-flight job: cancelable waiters are counted, and one non-cancelable
// submission pins the job against autocancel for good. Caller holds s.mu.
func (s *Service) attachLocked(j *Job, adm Admit) {
	s.emit(obs.Event{Type: obs.EvJobCoalesced, Job: j.id, Req: adm.RequestID, Class: adm.Priority.String()})
	if j.status != StatusQueued {
		return
	}
	if adm.Cancelable {
		j.watchers++
	} else {
		j.autocancel = false
	}
}

// worker pops jobs in priority order, failing expired ones without solving,
// until drain empties the queue.
func (s *Service) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		j := s.popLocked()
		if j == nil {
			if s.draining {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
			s.classes[j.priority].Expired++
			s.failDequeuedLocked(j, ErrDeadlineExceeded)
			continue
		}
		// Mark running while still holding the pop lock: Abandon and the
		// shed policy treat StatusQueued as "safe to drop", so a popped job
		// must never look queued once the lock is released.
		j.status = StatusRunning
		j.started = time.Now()
		wait := j.started.Sub(j.created)
		s.mu.Unlock()
		s.emit(obs.Event{Type: obs.EvJobStarted, Job: j.id, Req: j.req, Class: j.priority.String(),
			MS: float64(wait) / float64(time.Millisecond)})
		s.runJob(j)
		s.mu.Lock()
	}
}

func (s *Service) runJob(j *Job) {
	if hook := s.testJobStart; hook != nil {
		hook(j)
	}
	s.mu.Lock()
	g, opt := j.g, j.opt
	s.mu.Unlock()

	// Stage accounting is attempt-local and touched only by this goroutine:
	// Progress and StageStats are invoked synchronously from the solving
	// worker (per stage: StageStats(prev) then Progress(next)), so the
	// previous stage closes out at each transition — and after the attempt
	// returns — without a lock. The job.stage event fires at stage
	// completion, carrying the stage's wall time and buffered engine delta.
	var stageStart time.Time
	var stage string
	var stageCost congest.Stats
	var stages []StageCost
	var jobRounds, jobMsgs int64 // engine totals across attempts
	closeStage := func(now time.Time) {
		if stage == "" {
			return
		}
		d := now.Sub(stageStart)
		s.observeStage(stage, d, stageCost)
		stages = append(stages, StageCost{Stage: stage, Seconds: d.Seconds(),
			SimulatedRounds: stageCost.SimulatedRounds, ChargedRounds: stageCost.ChargedRounds,
			Messages: stageCost.Messages, Words: stageCost.Words})
		s.emit(obs.Event{Type: obs.EvJobStage, Job: j.id, Req: j.req, Stage: stage,
			MS:     float64(d) / float64(time.Millisecond),
			Rounds: stageCost.SimulatedRounds + stageCost.ChargedRounds, Msgs: stageCost.Messages})
		stage, stageCost = "", congest.Stats{}
	}
	opt.StageStats = func(st string, delta congest.Stats) {
		// Fires before the next stage's Progress call (and once more on
		// success for the final stage): buffer the delta for closeStage and
		// bill the process ledger. An aborted stage reports no delta and
		// closes out with zero cost.
		if st == stage {
			stageCost = delta
		}
		jobRounds += delta.SimulatedRounds + delta.ChargedRounds
		jobMsgs += delta.Messages
		s.mu.Lock()
		s.stats.Engine.SimulatedRounds += delta.SimulatedRounds
		s.stats.Engine.ChargedRounds += delta.ChargedRounds
		s.stats.Engine.Messages += delta.Messages
		s.stats.Engine.Words += delta.Words
		s.mu.Unlock()
	}
	opt.Progress = func(st string) {
		// Panic and delay modes apply here (a returned error has nowhere to
		// go mid-pipeline); a panic unwinds into solveOnce's recovery.
		_ = faults.Point("solve.stage")
		now := time.Now()
		closeStage(now)
		stage, stageStart = st, now
		s.mu.Lock()
		j.phase = st
		s.mu.Unlock()
	}

	// The round recorder is armed per attempt on the solve's pooled network
	// (solveOnce) and reset across retries, so the retained profile narrates
	// the attempt that produced the terminal state.
	var rec *congest.RoundRecorder
	if s.cfg.ProfileRounds > 0 {
		rec = congest.NewRoundRecorder(s.cfg.ProfileRounds, 1)
	}

	var raw []byte
	var err error
	backoff := retryBackoffBase
	for attempt := 0; ; attempt++ {
		stageStart = time.Now()
		if rec != nil {
			rec.Reset()
		}
		stages = stages[:0]
		raw, err = s.solveOnce(j, g, opt, rec)
		closeStage(time.Now())
		if err == nil || attempt >= maxSolveRetries || !retryable(err) {
			break
		}
		s.mu.Lock()
		s.stats.Retries++
		j.phase = "retry-backoff"
		s.mu.Unlock()
		s.emit(obs.Event{Type: obs.EvJobRetry, Job: j.id, Req: j.req, Err: err.Error()})
		time.Sleep(backoff)
		backoff *= 2
		if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
			err = fmt.Errorf("%w (after retryable failure: %v)", ErrDeadlineExceeded, err)
			break
		}
	}
	if err == nil && s.store != nil {
		// Write-through outside s.mu: the store's writer queue can apply
		// backpressure, which must stall only this solver worker, not
		// admission. raw is immutable from here on.
		_ = s.store.Put([32]byte(j.key), j.ghash, optionsBlob(j.opt), raw)
	}

	s.mu.Lock()
	j.finished = time.Now()
	j.g = nil
	j.phase = ""
	delete(s.inflight, j.key)
	s.stats.Solves++
	if rec != nil && rec.Observed() > 0 {
		j.profile = buildProfile(rec, stages)
		s.stats.Engine.ProfiledSolves++
	}
	dur := float64(j.finished.Sub(j.started))
	if s.ewmaSolveNs == 0 {
		s.ewmaSolveNs = dur
	} else {
		s.ewmaSolveNs = 0.8*s.ewmaSolveNs + 0.2*dur
	}
	if err != nil {
		j.status, j.err = StatusFailed, err
		s.stats.Failed++
		s.retire(j)
	} else {
		j.status, j.resultJSON = StatusDone, raw
		s.stats.Completed++
		if evicted := s.cache.put(j.key, j); evicted != nil {
			s.retire(evicted)
		}
	}
	s.mu.Unlock()
	close(j.done)
	s.solveHist.Observe(dur / float64(time.Second))
	s.observeSolveCost(jobRounds, jobMsgs)
	s.sloAvail.Observe(err == nil)
	if err == nil {
		s.sloLatency.ObserveLatency(time.Duration(dur), s.cfg.SLOLatency)
	}
	typ := obs.EvJobDone
	var errStr string
	if err != nil {
		errStr = err.Error()
		typ = obs.EvJobFailed
		if errors.Is(err, ErrDeadlineExceeded) {
			typ = obs.EvJobExpired
		}
	}
	s.emit(obs.Event{Type: typ, Job: j.id, Req: j.req, Class: j.priority.String(), Err: errStr,
		MS: dur / float64(time.Millisecond), Rounds: jobRounds, Msgs: jobMsgs, Terminal: true})
}

// solveOnce runs one pipeline attempt on a pooled network, converting
// solver panics into errors. A network that panicked mid-solve is in an
// unknown state and is dropped, never returned to the pool. rec, when
// non-nil, is armed as the network's round observer for the duration of the
// solve and disarmed before the network can re-enter the pool.
func (s *Service) solveOnce(j *Job, g *graph.Graph, opt ecss.Options, rec *congest.RoundRecorder) (raw []byte, err error) {
	// The recovery is installed before the first injection point so that
	// every panic-mode fault on this path — including solve.pre itself —
	// degrades to a per-job error, never a dead worker.
	var net *congest.Network
	panicked := true
	defer func() {
		if panicked {
			r := recover()
			s.mu.Lock()
			s.stats.PanicsRecovered++
			s.mu.Unlock()
			err = &panicError{val: r}
			return
		}
		if net != nil {
			s.pool.Put(j.ghash, net)
		}
	}()
	if ferr := faults.Point("solve.pre"); ferr != nil {
		panicked = false
		return nil, ferr
	}
	net = s.pool.Get(j.ghash, g)
	net.ResetAccounting()
	if rec != nil {
		net.Observer = rec
	}
	res, serr := ecss.SolveOn(net, opt)
	// Disarm before the network can be pooled: a recycled network must never
	// write a later job's rounds into this job's profile.
	net.Observer = nil
	if serr == nil {
		// Integrity gate: never cache (or serve) an unverified result.
		serr = ecss.Verify(net.G, res)
	}
	if serr == nil {
		serr = faults.Point("solve.postverify")
	}
	if serr == nil {
		raw, serr = json.Marshal(wireResult(net.G, res))
	}
	panicked = false
	return raw, serr
}

// panicError wraps a recovered solver panic as a per-job error.
type panicError struct{ val any }

func (p *panicError) Error() string { return fmt.Sprintf("solver panic recovered: %v", p.val) }

// retryable reports whether a solve attempt's failure is worth one retry:
// recovered panics and injected faults are transient by construction;
// deterministic pipeline errors (infeasible input, verification failure)
// would fail identically again.
func retryable(err error) bool {
	var pe *panicError
	var fe *faults.Fault
	return errors.As(err, &pe) || errors.As(err, &fe)
}

// retire keeps a terminal, uncached job addressable for a while, dropping
// the oldest such job beyond the retention bound. Dropping a job releases
// its store view pin (the job record owns it) and clears the aliasing
// result bytes, so a stale *Job held across the drop can never read an
// unmapped region — it just snapshots without a result. Caller holds s.mu.
func (s *Service) retire(j *Job) {
	s.retired = append(s.retired, j.id)
	for len(s.retired) > retainFinished {
		id := s.retired[0]
		if old, ok := s.jobs[id]; ok && old.view.Mapped() {
			old.resultJSON = nil
			old.view.Release()
			old.view = store.View{}
		}
		delete(s.jobs, id)
		s.retired = s.retired[1:]
	}
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.QueueDepth = s.qlen
	st.Inflight = len(s.inflight)
	st.CacheEntries = s.cache.len()
	st.Pool = s.pool.Stats()
	st.Classes = make(map[string]ClassStats, numPriorities)
	for c := Priority(0); c < numPriorities; c++ {
		cs := s.classes[c]
		cs.Queued = len(s.queues[c])
		st.Classes[c.String()] = cs
	}
	s.mu.Unlock()
	// The store has its own mutex; take it only after the admission mutex
	// is released so the two never nest here.
	if s.store != nil {
		sst := s.store.Stats()
		st.Store = &sst
	}
	st.Faults = faults.Snapshot()
	return st
}

// Drain stops admission, lets the workers finish every queued job, drops
// the idle pooled networks, and — when a store is configured — flushes its
// pending writes to disk and closes it, leaving a replayable index. It
// returns nil on a clean drain or ctx.Err() if the context expires first
// (workers then keep draining in the background; the pool is emptied and
// the store closed once they finish). Drain is one-shot: callers
// coordinate so it runs once.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: already draining")
	}
	s.draining = true
	// Wake every idle worker: they drain the remaining queue, then exit on
	// the draining flag. Submit checks the flag under the same mutex, so no
	// new job can slip in after it.
	s.cond.Broadcast()
	s.mu.Unlock()
	s.emit(obs.Event{Type: obs.EvServiceDrain})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.pool.dropIdle()
		if s.store != nil {
			// Every worker has returned, so every write-through Put is
			// already enqueued; Close flushes them durably in FIFO order.
			_ = s.store.Close()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
