package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinySizes keep a pass of every workload under a second or two.
var tinySizes = sizes{
	cold: [2]int{48, 96},
	warm: 64, warmCount: 2,
	routerNs: [3]int{16, 24, 32}, routerSet: 12, miss: 24, missDeck: 2,
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  300 * time.Millisecond,
		trace:    trace,
		tmp:      t.TempDir(),
		setups:   1,
		sizes:    tinySizes,
	}
}

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// result is the last line a run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func runTiny(t *testing.T, cfg config) (*report, result) {
	t.Helper()
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return rep, res
}

// TestEveryMetricPrinted runs a tiny pass of each workload, untraced and
// traced, and checks that the last line carries exactly the metrics
// BENCHMARK.json names, each with its unit, and that every check passed.
func TestEveryMetricPrinted(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			t.Run(name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				rep, res := runTiny(t, tinyConfig(t, name, trace))
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d violations=%q", res.Correct, res.Attempted, res.Failed, rep.violations)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Value == nil:
						t.Errorf("metric %s printed without a value", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptedColdResultFails drops one edge from every solved cold-solve
// result a shard sends; the run must report the violation.
func TestCorruptedColdResultFails(t *testing.T) {
	cfg := tinyConfig(t, "cold-solve", false)
	cfg.wrapShard = func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			// Cut the first [u,v,w] triple out of a solve's result in
			// place, keeping the field order the service writes.
			if i := bytes.Index(body, []byte(`"result":{"edges":[`)); i >= 0 && !bytes.Contains(body[:i], []byte(`"cached":true`)) {
				first := i + len(`"result":{"edges":[`)
				if end := bytes.Index(body[first:], []byte("],")); end > 0 {
					body = append(body[:first:first], body[first+end+2:]...)
				}
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
	rep, res := runTiny(t, cfg)
	if res.Correct || len(rep.violations) == 0 {
		t.Fatalf("a result missing an edge passed the checks (correct=%v)", res.Correct)
	}
	if !strings.Contains(rep.violations[0], "cold-solve") {
		t.Errorf("unexpected first violation %q", rep.violations[0])
	}
}

// settled waits for the goroutine count to fall back to base: every
// listener, service worker, router prober and connection has exited.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines outlive the run (base %d):\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func emptyDir(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("left behind in the temporary directory: %s", e.Name())
	}
}

// TestNothingOutlivesARun checks that a finished run and a run canceled in
// its timed phase (what SIGINT and SIGTERM do) leave no goroutine and no
// temporary directory behind.
func TestNothingOutlivesARun(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := tinyConfig(t, name, true)
			runTiny(t, cfg)
			settled(t, base)
			emptyDir(t, cfg.tmp)

			cfg = tinyConfig(t, name, false)
			cfg.seconds = time.Minute
			ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
			defer cancel()
			if _, err := run(ctx, cfg); !errors.Is(err, errCanceled) {
				t.Fatalf("canceled run returned %v, want %v", err, errCanceled)
			}
			settled(t, base)
			emptyDir(t, cfg.tmp)
		})
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cold-solve", "--trace", "2"},
		{"--workload", "cold-solve", "--seconds", "0"},
		{"--workload", "cold-solve", "extra"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	cfg, err := parseFlags([]string{"--workload", "warm-large", "--seed", "3", "--seconds", "2.5", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload != "warm-large" || cfg.seed != 3 || cfg.seconds != 2500*time.Millisecond || !cfg.trace {
		t.Errorf("parsed %+v", cfg)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.25: 2, 1: 5, 0.95: 4.8} {
		if got := quantile(xs, q); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, q, got, want)
		}
	}
}

func TestSplitReply(t *testing.T) {
	raw := []byte(`{"job_id":"j1","status":"done","cached":true,"elapsed_ms":1.5,"result":{"edges":[[0,1,2]],"weight":2}}` + "\n")
	head, res, err := splitReply(raw)
	if err != nil || head.JobID != "j1" || !head.Cached || string(res) != `{"edges":[[0,1,2]],"weight":2}` {
		t.Fatalf("splitReply = %+v, %s, %v", head, res, err)
	}
	head, res, err = splitReply([]byte(`{"error":"queue full"}`))
	if err != nil || head.Error != "queue full" || res != nil {
		t.Fatalf("splitReply(error) = %+v, %s, %v", head, res, err)
	}
}
