// Command perfbench is the repository benchmark. It is one process that
// serves in-process ecssd shards (service.New(...).Handler()) and an
// in-process ecssrouter (router.New(...).Handler()) on 127.0.0.1 listeners,
// with the daemons' default configuration, and drives them from a closed
// loop of HTTP clients. It spawns no child processes.
//
// Usage:
//
//	perfbench --workload cold-solve|warm-large|router-mixed --seed N \
//	          --seconds S --trace 0|1 [-tmp DIR] [-spans FILE]
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separate traced run (see trace.go). Every response is checked; a run with
// a wrong or missing result prints "correct": false and exits 1. The line
// before the result is the run's environment record and sample counts.
// BENCHMARK.json lists the workloads and metrics and METRICS.md says which
// end-to-end metric each layer metric should move.
//
// bash perfbench/run.sh builds the benchmark inside the checkout and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one invocation before clean-up, which drains in-flight
// solves for at most stopBudget per daemon, so the process exits within
// 180 s.
const runBudget = 150 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, v := range rep.violations {
		fmt.Fprintln(os.Stderr, "perfbench: violation:", v)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// tmp is where the run's temporary directory is made; spans is where a
	// traced run writes its spans ("" skips writing them).
	tmp   string
	spans string
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// sizes scales the instances; tests shrink them.
	sizes sizes
	// wrapShard, when non-nil, wraps every shard handler. Tests use it to
	// corrupt responses.
	wrapShard func(shard int, h http.Handler) http.Handler
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: fixes every instance and the request order")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	tmp := fs.String("tmp", "", "directory for the run's temporary files (default: the system temp dir)")
	spans := fs.String("spans", "", "file a traced run writes its spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[*workload]; !ok {
		return config{}, fmt.Errorf("unknown workload %q (known: %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *seconds > 120 {
		return config{}, fmt.Errorf("--seconds %g out of range (0,120]", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		tmp:      *tmp,
		spans:    *spans,
		setups:   workloads[*workload].setups,
		sizes:    fullSizes,
	}, nil
}

// metric is one reported number with its unit and sample count (1 for a
// count or ratio).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// report is the outcome of one invocation.
type report struct {
	workload   string
	seed       int64
	clients    int
	trace      bool
	attempted  int
	failed     int
	metrics    []metric
	violations []string
}

func (r *report) correct() bool { return len(r.violations) == 0 && r.attempted > 0 }

// env is the environment record printed with every result.
type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Clients    int    `json:"clients"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

func (r *report) write(w io.Writer) error {
	samples := make(map[string]int, len(r.metrics))
	for _, m := range r.metrics {
		samples[m.name] = m.samples
	}
	info := map[string]any{
		"env": env{
			Workload:   r.workload,
			Seed:       r.seed,
			Clients:    r.clients,
			Trace:      r.trace,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			Commit:     gitCommit(),
		},
		"samples":    samples,
		"violations": r.violations,
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics}
	for _, v := range []any{info, result} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// gitCommit reads HEAD from the working directory's .git without running
// git; "unknown" outside a repository checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// errCanceled marks a run stopped by a signal or the run budget.
var errCanceled = errors.New("run canceled")
