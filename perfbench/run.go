package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"
)

// runner is one invocation in progress.
type runner struct {
	cfg config
	tmp string
	tr  *tracer // nil when untraced
	chk checker
}

// run performs one invocation. Whatever it starts — listeners, services,
// routers, temporary directories — is stopped and removed before it
// returns, on every path.
func run(ctx context.Context, cfg config) (rep *report, err error) {
	tmp, err := os.MkdirTemp(cfg.tmp, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(tmp)) }()
	r := &runner{cfg: cfg, tmp: tmp}
	w := workloads[cfg.workload]
	rep = &report{workload: cfg.workload, seed: cfg.seed, clients: w.clients, trace: cfg.trace}
	if cfg.trace {
		r.tr = newTracer()
		err = r.traced(ctx, w, rep)
	} else {
		err = r.measure(ctx, w, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.violations = r.chk.violations()
	return rep, nil
}

// setup runs the workload's set-up once, closing what it started if it
// fails.
func (r *runner) setup(ctx context.Context, w workload, k int) (*state, time.Duration, error) {
	start := time.Now()
	st, err := w.setup(ctx, r, k)
	d := time.Since(start)
	if err == nil && ctx.Err() != nil {
		err = errCanceled
	}
	if err != nil {
		return nil, 0, errors.Join(err, st.close())
	}
	return st, d, nil
}

// withState runs body on a fresh set-up and always closes it afterwards.
func withState(st *state, body func() error) (err error) {
	defer func() { err = errors.Join(err, st.close()) }()
	return body()
}

// measure is the untraced run: set-up cfg.setups times (keeping the last),
// then the timed closed loop, reporting every end-to-end metric.
func (r *runner) measure(ctx context.Context, w workload, rep *report) error {
	var setups []float64
	var setupSamples []sample
	var st *state
	for k := 0; k < r.cfg.setups; k++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		var d time.Duration
		var err error
		if st, d, err = r.setup(ctx, w, k); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		setupSamples = append(setupSamples, st.setupSamples...)
	}
	return withState(st, func() error {
		runtime.GC()
		heap := startHeapSampler()
		samples, wall, err := st.loop.run(ctx, r.cfg.seconds)
		peak := heap.stop()
		if err != nil {
			return err
		}
		rep.metrics = endToEnd(samples, setupSamples, wall, setups, peak)
		rep.attempted, rep.failed = len(samples), countFailed(samples)
		return r.settle(rep.metrics)
	})
}

func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// endToEnd computes the end-to-end metrics of one timed phase.
// A metric without samples is NaN.
func endToEnd(samples, setupSamples []sample, wall time.Duration, setups []float64, peakMB float64) []metric {
	var lat, hit, miss []float64
	ok := 0
	for _, s := range samples {
		if !s.ok {
			continue
		}
		ok++
		if s.counted {
			lat = append(lat, ms(s.latency))
		}
	}
	for _, s := range append(samples, setupSamples...) {
		switch {
		case !s.ok:
		case s.cached:
			hit = append(hit, ms(s.latency))
		default:
			miss = append(miss, ms(s.latency))
		}
	}
	return []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"throughput_rps", float64(len(lat)) / wall.Seconds(), "1/s", len(lat)},
		{"latency_p50_ms", median(lat), "ms", len(lat)},
		{"latency_p95_ms", quantile(lat, 0.95), "ms", len(lat)},
		{"hit_latency_p50_ms", median(hit), "ms", len(hit)},
		{"miss_latency_p50_ms", median(miss), "ms", len(miss)},
		{"ok_ratio", float64(ok) / float64(len(samples)), "ratio", len(samples)},
		{"peak_heap_mb", peakMB, "MiB", 1},
	}
}

// settle checks that every metric was measured. A run with violations
// reports unmeasured metrics as 0: its result is refused anyway.
func (r *runner) settle(ms []metric) error {
	failed := r.chk.count() > 0
	for i, m := range ms {
		if m.value == m.value {
			continue
		}
		if !failed {
			return fmt.Errorf("metric %s has no samples", m.name)
		}
		ms[i].value = 0
	}
	return nil
}

// traced is the traced run: one set-up with span-recording handlers, the
// timed loop run twice for half the time each — untraced, then with spans
// on, which gives trace_overhead_pct — then the layer replays (trace.go).
func (r *runner) traced(ctx context.Context, w workload, rep *report) error {
	st, _, err := r.setup(ctx, w, 0)
	if err != nil {
		return err
	}
	return withState(st, func() error {
		half := r.cfg.seconds / 2
		runtime.GC()
		plain, _, err := st.loop.run(ctx, half)
		if err != nil {
			return err
		}
		r.tr.on.Store(true)
		spanned, _, err := st.loop.run(ctx, half)
		if err != nil {
			return err
		}
		samples := append(plain, spanned...)
		rep.attempted, rep.failed = len(samples), countFailed(samples)
		if rep.metrics, err = r.layers(ctx, st, plain, spanned); err != nil {
			return err
		}
		if err := r.settle(rep.metrics); err != nil {
			return err
		}
		if r.cfg.spans != "" {
			return r.tr.write(r.cfg.spans)
		}
		return nil
	})
}

// wrap returns the handler wrapper of shard i or the router, whose requests
// come from parent: span recording on a traced run, the test hook on
// shards, or nil.
func (r *runner) wrap(layer, parent string, i int) func(http.Handler) http.Handler {
	if r.tr == nil && (layer != "shard" || r.cfg.wrapShard == nil) {
		return nil
	}
	return func(h http.Handler) http.Handler {
		if layer == "shard" && r.cfg.wrapShard != nil {
			h = r.cfg.wrapShard(i, h)
		}
		return r.tr.wrap(layer, parent, h)
	}
}
