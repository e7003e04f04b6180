package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"twoecss/internal/obs"
	"twoecss/internal/service"
)

// client sends solve requests and records one sample per request.
type client struct {
	hc     *http.Client
	target string
	tr     *tracer // nil: untraced
}

func newClient(target string, conns int, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		target: target,
		tr:     tr,
	}
}

// close drops the client's idle connections so no connection goroutine
// outlives the run.
func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one response as the client saw it.
type reply struct {
	id      string
	status  int
	latency time.Duration
	// shard names the shard that answered a routed request.
	shard string
	head  replyHead
	// result is the raw "result" object of the response.
	result []byte
	err    error
}

// replyHead is the part of a JobResponse the checks read.
type replyHead struct {
	JobID  string         `json:"job_id"`
	Status service.Status `json:"status"`
	Cached bool           `json:"cached"`
	Error  string         `json:"error"`
}

// send posts one solve body with request id id and waits for the whole
// response.
func (c *client) send(ctx context.Context, id string, body []byte) reply {
	rp := reply{id: id}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.target+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		rp.err = err
		return rp
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, id)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		rp.err = err
		return rp
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	rp.latency = end.Sub(start)
	rp.status = resp.StatusCode
	rp.shard = resp.Header.Get(obs.ShardHeader)
	if err != nil {
		rp.err = fmt.Errorf("read response: %w", err)
		return rp
	}
	c.tr.record(id, "client", "", start, end)
	rp.head, rp.result, rp.err = splitReply(raw)
	return rp
}

// splitReply parses a JobResponse into the head the checks read and the
// raw "result" object.
func splitReply(raw []byte) (replyHead, []byte, error) {
	var full struct {
		replyHead
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &full); err != nil {
		return replyHead{}, nil, fmt.Errorf("decode response: %w", err)
	}
	return full.replyHead, full.Result, nil
}

// sample is one timed request's outcome.
type sample struct {
	latency time.Duration
	ok      bool
	cached  bool
	// counted marks the workload's own requests; cold-solve's re-submission
	// probes are not counted in latency_p50_ms and throughput_rps.
	counted bool
}

// loop is one workload's timed phase: clients closed-loop clients, each
// running step(c, i) for i = 0, 1, ... until the deadline, then on to the
// next multiple of period so every run ends on whole request cycles.
type loop struct {
	clients int
	period  int
	step    func(ctx context.Context, c, i int) []sample
	// next is each client's next request index: a second run of the loop
	// continues the sequences, so cold-solve instances stay first-seen.
	next []int
}

// run drives the loop for d and returns every sample and the wall time.
func (l *loop) run(ctx context.Context, d time.Duration) ([]sample, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, l.clients)
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := l.next[c]
			for ; ctx.Err() == nil && (time.Now().Before(deadline) || i%l.period != 0); i++ {
				per[c] = append(per[c], l.step(ctx, c, i)...)
			}
			l.next[c] = i
		}(c)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, 0, errCanceled
	}
	return slices.Concat(per...), time.Since(start), nil
}

// heapSampler records the highest live heap — the bytes the last GC
// marked reachable — until stop. Heap in use including garbage swings with
// GC timing; the live heap follows what the services and the load hold.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		ms := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(ms)
			h.peak = max(h.peak, ms[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs need not be sorted. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
