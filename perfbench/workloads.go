package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"

	"twoecss/internal/ecss"
	"twoecss/internal/graph"
	"twoecss/internal/service"
)

// Workloads. Why each exists is recorded in METRICS.md; the request
// sequence of every client is a function of the seed alone. BENCHMARK.json
// gates warm-large and router-mixed only: in a 25 s run cold-solve's tail
// and hit latency spread about 0.3 from seed to seed, too far to carry a
// bound, so cold-solve is run by hand with a longer --seconds.
var workloads = map[string]workload{
	"cold-solve":   {clients: 1, setups: 5, setup: setupCold},
	"warm-large":   {clients: 2, setups: 15, setup: setupWarm},
	"router-mixed": {clients: 2, setups: 3, setup: setupRouter},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// workload is one traffic mix: its client count, how many times an
// untraced run sets it up (setup_s is their median; router-mixed's set-up
// solves 256 instances, so it repeats fewer times; warm-large's set-up
// solves give its miss_latency_p50_ms, whose solve times differ by up to 2x
// from instance to instance, so it repeats more) and the set-up itself.
// Set-up k of a run may use other instances than set-up 0.
type workload struct {
	clients int
	setups  int
	setup   func(ctx context.Context, r *runner, k int) (*state, error)
}

// sizes are the instance sizes of the three workloads.
type sizes struct {
	// cold holds the small and large cold-solve sizes.
	cold [2]int
	// warm is the n and count of the warm-large instances.
	warm      int
	warmCount int
	// routerNs and routerSet shape the router-mixed working set; miss is
	// the n of its never-seen instances, missDeck how many per client
	// set-up generates ahead.
	routerNs  [3]int
	routerSet int
	miss      int
	missDeck  int
}

var fullSizes = sizes{
	cold: [2]int{1024, 4096},
	warm: 2048, warmCount: 2,
	routerNs: [3]int{128, 256, 512}, routerSet: 256, miss: 256, missDeck: 128,
}

// coldCycle is one cycle of cold-solve requests: grid, ring and ba at both
// sizes and er at the small one, with Borůvka on five in twenty. Nine of
// the twenty are grid n=1024, so the median request lies inside one
// instance class whose rounds the grid's shape fixes; a median that falls
// between two classes jumps with the seed. Borůvka runs O(n + D log n)
// simulated rounds, so it stays on small instances (ring at n=4096 takes
// seconds).
var coldCycle = []kind{
	{"grid", 0, false}, {"ring", 0, true}, {"grid", 0, false}, {"ba", 0, false}, {"grid", 0, false},
	{"grid", 1, false}, {"grid", 0, false}, {"er", 0, true}, {"grid", 0, false}, {"ring", 0, false},
	{"grid", 0, false}, {"ba", 1, false}, {"grid", 0, true}, {"grid", 0, false}, {"er", 0, false},
	{"grid", 0, false}, {"ring", 1, false}, {"ba", 0, true}, {"grid", 0, false}, {"grid", 0, true},
}

// coldResubmits is how many times cold-solve re-submits each solved body.
const coldResubmits = 3

// routerFamilies are sparse, so the working-set bodies stay small and the
// fixed per-request costs dominate.
var routerFamilies = []string{"grid", "ring", "random", "treeleafcycle"}

type kind struct {
	family  string
	size    int // index into sizes.cold
	boruvka bool
}

// instance is one generated graph and its request body.
type instance struct {
	family  string
	n       int
	boruvka bool
	g       *graph.Graph
	body    []byte
	// scaling marks the grid instances behind ecss.solve_ms.n1024 (1) and
	// ecss.solve_ms.n4096 (2).
	scaling int
	// got is the engine bill the HTTP path reported (cold-solve only).
	got *service.ResultWire
}

func newInstance(family string, n int, seed int64, boruvka bool) (*instance, error) {
	g, err := graph.ByFamily(family, n, seed)
	if err != nil {
		return nil, err
	}
	req := service.SolveRequest{Graph: service.WireGraph(g), Wait: true}
	if boruvka {
		req.Options.MST = "boruvka"
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &instance{family: family, n: n, boruvka: boruvka, g: g, body: body}, nil
}

// options are the solve options the request body encodes.
func (in *instance) options() ecss.Options {
	opt := ecss.DefaultOptions()
	if in.boruvka {
		opt.MST = ecss.MSTSimulateBoruvka
	}
	return opt
}

// mix derives the seed of instance i of stream s from the workload seed
// (SplitMix64), so every instance is a function of the workload seed.
func mix(seed int64, s, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(s)<<40 + uint64(i)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// deck hands out instances by index, generating them on first use.
type deck struct {
	mu    sync.Mutex
	items []*instance
	make  func(i int) (*instance, error)
}

func (d *deck) fill(n int) error {
	for i := 0; i < n; i++ {
		if _, err := d.get(i); err != nil {
			return err
		}
	}
	return nil
}

func (d *deck) get(i int) (*instance, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.items) <= i {
		in, err := d.make(len(d.items))
		if err != nil {
			return nil, fmt.Errorf("generate instance %d: %w", len(d.items), err)
		}
		d.items = append(d.items, in)
	}
	return d.items[i], nil
}

// drop forgets instance i once it is no longer needed: the deck lives in
// the same heap as the services it measures.
func (d *deck) drop(i int) {
	d.mu.Lock()
	d.items[i] = nil
	d.mu.Unlock()
}

func coldDeck(sz sizes, seed int64) *deck {
	return &deck{make: func(i int) (*instance, error) {
		k := coldCycle[i%len(coldCycle)]
		return newInstance(k.family, sz.cold[k.size], mix(seed, 1, i), k.boruvka)
	}}
}

// gridPair is the scaling pair the traced ecss section always solves: the
// first grid of each size in the cold-solve cycle.
func gridPair(sz sizes, seed int64) ([]*instance, error) {
	var out []*instance
	for i, k := range coldCycle {
		if k.family != "grid" || k.boruvka || slices.ContainsFunc(out, func(in *instance) bool { return in.scaling == k.size+1 }) {
			continue
		}
		in, err := newInstance(k.family, sz.cold[k.size], mix(seed, 1, i), false)
		if err != nil {
			return nil, err
		}
		in.scaling = k.size + 1
		out = append(out, in)
	}
	return out, nil
}

// jobRef names a solved job for the queue-wait trace lookup.
type jobRef struct{ shard, job string }

// state is one set-up's running fleet and the timed loop bound to it.
type state struct {
	fleet  *fleet
	client *client
	loop   *loop
	// setupSamples are requests made during set-up that count towards
	// miss_latency_p50_ms (warm-large has no misses in its timed phase).
	setupSamples []sample
	// traceSet is what the traced run solves directly; replays are the
	// bodies it replays through the layers, with refs their reference
	// results.
	traceSet []*instance
	replays  []*instance
	refs     map[*instance][]byte
	// owner is the shard URL that answered each working-set instance.
	owner map[*instance]string

	mu     sync.Mutex
	solved []jobRef
	dirs   []string
}

func (st *state) noteSolved(shard, job string) {
	st.mu.Lock()
	st.solved = append(st.solved, jobRef{shard, job})
	st.mu.Unlock()
}

// close stops the fleet and removes the set-up's directories.
func (st *state) close() error {
	var err error
	if st.client != nil {
		st.client.close()
	}
	if st.fleet != nil {
		err = st.fleet.close()
	}
	for _, d := range st.dirs {
		err = errors.Join(err, os.RemoveAll(d))
	}
	return err
}

// okReply checks that a response is a 200 carrying a done job's result.
func okReply(rp reply) error {
	switch {
	case rp.err != nil:
		return rp.err
	case rp.status != 200:
		return fmt.Errorf("status %d: %s", rp.status, rp.head.Error)
	case rp.head.Status != service.StatusDone:
		return fmt.Errorf("job %s status %q: %s", rp.head.JobID, rp.head.Status, rp.head.Error)
	case len(rp.result) == 0:
		return fmt.Errorf("job %s: 200 without a result", rp.head.JobID)
	}
	return nil
}

// checkResult maps a result's [u,v,w] triples back to edge ids of in's
// graph and runs ecss.Verify on them.
func checkResult(in *instance, result []byte) (*service.ResultWire, error) {
	var rw service.ResultWire
	if err := json.Unmarshal(result, &rw); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	type triple [3]int64
	ids := make(map[triple][]int, in.g.M())
	for id, e := range in.g.Edges {
		u, v := int64(e.U), int64(e.V)
		if u > v {
			u, v = v, u
		}
		t := triple{u, v, int64(e.W)}
		ids[t] = append(ids[t], id)
	}
	res := &ecss.Result{Weight: rw.Weight, Edges: make([]int, 0, len(rw.Edges))}
	for _, t := range rw.Edges {
		free := ids[t]
		if len(free) == 0 {
			return nil, fmt.Errorf("result edge %v is not an edge of the instance (or is listed twice)", t)
		}
		res.Edges = append(res.Edges, free[0])
		ids[t] = free[1:]
	}
	if err := ecss.Verify(in.g, res); err != nil {
		return nil, err
	}
	return &rw, nil
}

// newState makes a state whose fleet the set-up fills in; on a set-up
// error the caller closes it, stopping whatever had started.
func (r *runner) newState(clients int) *state {
	return &state{fleet: &fleet{}, refs: map[*instance][]byte{}, owner: map[*instance]string{}, loop: &loop{clients: clients, next: make([]int, clients)}}
}

// setupCold generates the cold-solve instances and starts one ecssd.
func setupCold(ctx context.Context, r *runner, _ int) (*state, error) {
	st := r.newState(1)
	sz := r.cfg.sizes
	d := coldDeck(sz, r.cfg.seed)
	if err := d.fill(len(coldCycle)); err != nil {
		return st, err
	}
	sh, err := startShard("127.0.0.1:0", "", r.wrap("shard", "client", 0))
	if err != nil {
		return st, err
	}
	st.fleet.shards = []*shard{sh}
	st.client = newClient(st.fleet.target(), 1, r.tr)
	// The traced run solves and replays one instance of each kind.
	seen := map[kind]bool{}
	for i, k := range coldCycle {
		if !seen[k] {
			seen[k] = true
			if k.family == "grid" && !k.boruvka {
				d.items[i].scaling = k.size + 1
			}
			st.traceSet = append(st.traceSet, d.items[i])
		}
	}
	st.replays = st.traceSet
	st.loop.period = len(coldCycle)
	st.loop.step = func(ctx context.Context, c, i int) []sample {
		in, err := d.get(i)
		if err != nil {
			r.chk.fail("cold-solve: %v", err)
			return nil
		}
		id := fmt.Sprintf("cold-%d", i)
		rp := st.client.send(ctx, id, in.body)
		cold := sample{latency: rp.latency, counted: true}
		if err := okReply(rp); err != nil {
			r.chk.failReply(ctx, "cold-solve %s (%s n=%d): %v", id, in.family, in.n, err)
			return []sample{cold}
		}
		if rp.head.Cached {
			r.chk.fail("cold-solve %s: first-seen %s n=%d served cached", id, in.family, in.n)
			return []sample{cold}
		}
		rw, err := checkResult(in, rp.result)
		if err != nil {
			r.chk.fail("cold-solve %s (%s n=%d): %v", id, in.family, in.n, err)
			return []sample{cold}
		}
		cold.ok = true
		if i < len(coldCycle) {
			in.got = rw
			st.mu.Lock()
			st.refs[in] = rp.result
			st.mu.Unlock()
		}
		st.noteSolved(sh.srv.url, rp.head.JobID)
		// Re-submit the same body: it must come back cached with the same
		// bytes. These probes give cold-solve its hit latency.
		out := []sample{cold}
		for p := 0; p < coldResubmits; p++ {
			pid := fmt.Sprintf("%s-again-%d", id, p)
			pp := st.client.send(ctx, pid, in.body)
			probe := sample{latency: pp.latency, cached: true}
			switch err := okReply(pp); {
			case err != nil:
				r.chk.failReply(ctx, "cold-solve %s: %v", pid, err)
			case !pp.head.Cached:
				r.chk.fail("cold-solve %s not served cached", pid)
			case string(pp.result) != string(rp.result):
				r.chk.fail("cold-solve %s: result differs from the solve's", pid)
			default:
				probe.ok = true
			}
			out = append(out, probe)
		}
		if i >= len(coldCycle) {
			d.drop(i)
		}
		return out
	}
	return st, nil
}

// setupWarm solves the warm-large instances on one ecssd; every timed
// request then re-submits one of them byte for byte. Each set-up of a run
// solves other instances, so miss_latency_p50_ms, which these solves
// give, is a median over several instances.
func setupWarm(ctx context.Context, r *runner, k int) (*state, error) {
	st := r.newState(2)
	sz := r.cfg.sizes
	ins := make([]*instance, sz.warmCount)
	for j := range ins {
		var err error
		if ins[j], err = newInstance("er", sz.warm, mix(r.cfg.seed, 2, k*sz.warmCount+j), false); err != nil {
			return st, err
		}
	}
	sh, err := startShard("127.0.0.1:0", "", r.wrap("shard", "client", 0))
	if err != nil {
		return st, err
	}
	st.fleet.shards = []*shard{sh}
	st.client = newClient(st.fleet.target(), 2, r.tr)
	// One at a time, so each set-up solve's latency is one solve's, as on
	// cold-solve.
	for j, in := range ins {
		rp := st.client.send(ctx, fmt.Sprintf("warm-setup-%d-%d", k, j), in.body)
		if err := setupReply(ctx, in, rp); err != nil {
			return st, fmt.Errorf("warm-large set-up: %w", err)
		}
		st.refs[in] = rp.result
		st.setupSamples = append(st.setupSamples, sample{latency: rp.latency, ok: true, cached: rp.head.Cached})
		st.noteSolved(sh.srv.url, rp.head.JobID)
	}
	pair, err := gridPair(sz, r.cfg.seed)
	if err != nil {
		return st, err
	}
	st.traceSet = append(slices.Clone(ins), pair...)
	st.replays = slices.Repeat(ins, 6)
	st.loop.period = 1
	st.loop.step = func(ctx context.Context, c, i int) []sample {
		in := ins[(c+i)%len(ins)]
		id := fmt.Sprintf("warm-%d-%d", c, i)
		rp := st.client.send(ctx, id, in.body)
		s := sample{latency: rp.latency, cached: rp.head.Cached, counted: true}
		switch err := okReply(rp); {
		case err != nil:
			r.chk.failReply(ctx, "warm-large %s: %v", id, err)
		case string(rp.result) != string(st.refs[in]):
			r.chk.fail("warm-large %s: result differs from the first response for this body", id)
		default:
			s.ok = true
		}
		return []sample{s}
	}
	return st, nil
}

// setupReply checks a set-up solve: a 200 with a verified result.
func setupReply(ctx context.Context, in *instance, rp reply) error {
	if ctx.Err() != nil {
		return errCanceled
	}
	if err := okReply(rp); err != nil {
		return err
	}
	_, err := checkResult(in, rp.result)
	return err
}

// setupRouter solves the router-mixed working set through an ecssrouter
// over two store-backed ecssd shards, then restarts the shards on the same
// store directories and addresses, so the timed hits are served from the
// stores' pre-warmed mmap views.
func setupRouter(ctx context.Context, r *runner, _ int) (*state, error) {
	st := r.newState(2)
	sz, seed := r.cfg.sizes, r.cfg.seed
	set := make([]*instance, sz.routerSet)
	for j := range set {
		var err error
		fam := routerFamilies[j%len(routerFamilies)]
		if set[j], err = newInstance(fam, sz.routerNs[(j/len(routerFamilies))%len(sz.routerNs)], mix(seed, 3, j), false); err != nil {
			return st, err
		}
	}
	misses := make([]*deck, 2)
	for c := range misses {
		misses[c] = &deck{make: func(k int) (*instance, error) {
			return newInstance(routerFamilies[(k+c)%len(routerFamilies)], sz.miss, mix(seed, 4+c, k), false)
		}}
		if err := misses[c].fill(sz.missDeck); err != nil {
			return st, err
		}
	}
	for i := 0; i < 2; i++ {
		dir, err := os.MkdirTemp(r.tmp, "store-")
		if err != nil {
			return st, err
		}
		st.dirs = append(st.dirs, dir)
		sh, err := startShard("127.0.0.1:0", dir, r.wrap("shard", "router", i))
		if err != nil {
			return st, err
		}
		st.fleet.shards = append(st.fleet.shards, sh)
	}
	fr, err := startRouter(st.fleet.shards, r.wrap("router", "client", 0))
	if err != nil {
		return st, err
	}
	st.fleet.front = fr
	st.client = newClient(fr.srv.url, 2, r.tr)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; j < len(set) && errs[c] == nil; j += 2 {
				rp := st.client.send(ctx, fmt.Sprintf("router-setup-%d", j), set[j].body)
				if err := setupReply(ctx, set[j], rp); err != nil {
					errs[c] = fmt.Errorf("router-mixed set-up instance %d: %w", j, err)
					return
				}
				st.mu.Lock()
				st.refs[set[j]], st.owner[set[j]] = rp.result, rp.shard
				st.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return st, err
	}
	// Warm restart: drain the shards (flushing their stores), then open
	// the same directories on the same addresses, so the consistent-hash
	// ring maps every key to the shard that stored it.
	st.client.close()
	old := st.fleet
	st.fleet = &fleet{}
	if err := old.close(); err != nil {
		return st, fmt.Errorf("router-mixed restart: %w", err)
	}
	for i, sh := range old.shards {
		nsh, err := startShard(sh.srv.addr, sh.dir, r.wrap("shard", "router", i))
		if err != nil {
			return st, fmt.Errorf("router-mixed restart: %w", err)
		}
		st.fleet.shards = append(st.fleet.shards, nsh)
	}
	if st.fleet.front, err = startRouter(st.fleet.shards, r.wrap("router", "client", 0)); err != nil {
		return st, err
	}
	st.client = newClient(st.fleet.front.srv.url, 2, r.tr)

	pair, err := gridPair(sz, seed)
	if err != nil {
		return st, err
	}
	st.traceSet = append(slices.Clone(set[:min(8, len(set))]), pair...)
	st.replays = set[:min(32, len(set))]
	pick := make([]*rand.Rand, 2)
	for c := range pick {
		pick[c] = rand.New(rand.NewSource(mix(seed, 6+c, 0)))
	}
	st.loop.period = 10
	st.loop.step = func(ctx context.Context, c, i int) []sample {
		id := fmt.Sprintf("router-%d-%d", c, i)
		if i%10 == 9 {
			in, err := misses[c].get(i / 10)
			if err != nil {
				r.chk.fail("router-mixed: %v", err)
				return nil
			}
			rp := st.client.send(ctx, id, in.body)
			s := sample{latency: rp.latency, cached: rp.head.Cached, counted: true}
			if err := okReply(rp); err != nil {
				r.chk.failReply(ctx, "router-mixed miss %s: %v", id, err)
				return []sample{s}
			}
			if _, err := checkResult(in, rp.result); err != nil {
				r.chk.fail("router-mixed miss %s (%s n=%d): %v", id, in.family, in.n, err)
				return []sample{s}
			}
			s.ok = true
			st.noteSolved(rp.shard, rp.head.JobID)
			misses[c].drop(i / 10)
			return []sample{s}
		}
		in := set[pick[c].Intn(len(set))]
		rp := st.client.send(ctx, id, in.body)
		s := sample{latency: rp.latency, cached: rp.head.Cached, counted: true}
		switch err := okReply(rp); {
		case err != nil:
			r.chk.failReply(ctx, "router-mixed %s: %v", id, err)
		case string(rp.result) != string(st.refs[in]):
			r.chk.fail("router-mixed %s: result differs from the first response for this body", id)
		default:
			s.ok = true
		}
		return []sample{s}
	}
	return st, nil
}

// checker collects correctness violations from every client.
type checker struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

// maxViolations bounds the messages kept; the count is always exact.
const maxViolations = 20

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.msgs) < maxViolations {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// failReply records a failed request unless the run itself is being
// canceled, which aborts it without a result anyway.
func (c *checker) failReply(ctx context.Context, format string, args ...any) {
	if ctx.Err() == nil {
		c.fail(format, args...)
	}
}

func (c *checker) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *checker) violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := slices.Clone(c.msgs)
	if c.n > len(c.msgs) {
		out = append(out, fmt.Sprintf("... and %d more", c.n-len(c.msgs)))
	}
	return out
}
