// Command bench regenerates every reproduction experiment table (E1-E12,
// see DESIGN.md) and prints them to stdout. Experiment cells run on a
// worker pool (deterministic output for any pool size); with -json the
// command also records a machine-readable benchmark trajectory point
// (wall time, allocations, engine rounds and messages per experiment).
//
// Usage:
//
//	bench [-seed N] [-only E1,E4] [-workers K] [-json BENCH_PR1.json]
//	      [-store-bench] [-engine-bench]
//
// -only takes a comma-separated list of experiment ids; with no -only every
// experiment runs. -store-bench additionally measures the result store's
// warm read path — zero-copy mmap views vs. the read-and-verify fallback —
// and records ns/op, bytes/op, and allocs/op under "store_get" in the -json
// trajectory. -engine-bench measures the engine round observer's overhead —
// repeated solves on one reused network, disarmed vs armed with a
// profile-sized RoundRecorder — and records wall time, allocations, and the
// engine's round/message bill per solve under "engine_observer".
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"twoecss/internal/congest"
	"twoecss/internal/ecss"
	"twoecss/internal/experiments"
	"twoecss/internal/graph"
	"twoecss/internal/store"
)

// record is one experiment's entry in the benchmark trajectory file.
// TotalNs and TotalAllocs are whole-run totals for one single-shot
// execution of the experiment (wall time and MemStats Mallocs delta), not
// benchstat-style per-operation averages.
type record struct {
	ID          string `json:"id"`
	Title       string `json:"title"`
	TotalNs     int64  `json:"total_ns"`
	TotalAllocs uint64 `json:"total_allocs"`
	Rounds      int64  `json:"rounds"`
	Messages    int64  `json:"messages"`
	Rows        int    `json:"rows"`
}

// storeGetRow is one warm-read measurement of the result store: the same
// 1MiB entry fetched repeatedly, either as a pinned mmap view (zero-copy)
// or through the NoMmap fallback that re-reads and re-verifies the file.
type storeGetRow struct {
	Mode         string  `json:"mode"` // "mmap" or "readfile"
	PayloadBytes int64   `json:"payload_bytes"`
	Ops          int     `json:"ops"`
	NsPerOp      int64   `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
}

// engineObsRow is one engine-observer measurement: the same instance solved
// repeatedly on a reused network with the round observer disarmed (the
// default serving path: one nil-check per round) or armed with a
// RoundRecorder (per-round samples retained, as GET /v1/jobs/{id}/profile
// serves them). Comparing the two rows is the observer's overhead bill.
type engineObsRow struct {
	Mode        string  `json:"mode"` // "disarmed" or "armed"
	N           int     `json:"n"`
	Ops         int     `json:"ops"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	RoundsPerOp int64   `json:"rounds_per_op"` // simulated + charged
	MsgsPerOp   int64   `json:"messages_per_op"`
	SamplesKept int     `json:"samples_kept,omitempty"` // armed: ring occupancy after the last solve
}

// trajectory is the top-level schema of the -json output; future PRs append
// comparable files (BENCH_PR2.json, ...) to track the perf trend.
type trajectory struct {
	Seed           int64          `json:"seed"`
	Workers        int            `json:"workers"`
	GoMaxProcs     int            `json:"gomaxprocs"`
	Experiments    []record       `json:"experiments"`
	StoreGet       []storeGetRow  `json:"store_get,omitempty"`
	EngineObserver []engineObsRow `json:"engine_observer,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 1, "random seed for instance generation")
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. E1,E4)")
	workers := flag.Int("workers", 0, "experiment-cell worker pool size (<=0: GOMAXPROCS)")
	jsonPath := flag.String("json", "", "write a machine-readable benchmark trajectory to this file")
	storeBench := flag.Bool("store-bench", false, "also benchmark the store's warm read path (mmap vs readfile)")
	engineBench := flag.Bool("engine-bench", false, "also benchmark the engine round observer (disarmed vs armed)")
	flag.Parse()

	experiments.Workers = *workers
	specs := experiments.Specs()
	var onlySet map[string]bool
	if *only != "" {
		onlySet = make(map[string]bool)
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			known := false
			for _, sp := range specs {
				if sp.ID == id {
					known = true
					break
				}
			}
			if !known {
				return fmt.Errorf("unknown experiment id %q (known: %s..%s)",
					id, specs[0].ID, specs[len(specs)-1].ID)
			}
			onlySet[id] = true
		}
		if len(onlySet) == 0 {
			return fmt.Errorf("-only %q lists no experiment ids", *only)
		}
	}
	traj := trajectory{Seed: *seed, Workers: *workers, GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, sp := range specs {
		if onlySet != nil && !onlySet[sp.ID] {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		begin := time.Now()
		t, err := sp.Run(*seed)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.ID, err)
		}
		elapsed := time.Since(begin)
		runtime.ReadMemStats(&after)
		fmt.Println(t.Render())
		traj.Experiments = append(traj.Experiments, record{
			ID:          t.ID,
			Title:       t.Title,
			TotalNs:     elapsed.Nanoseconds(),
			TotalAllocs: after.Mallocs - before.Mallocs,
			Rounds:      t.Rounds,
			Messages:    t.Messages,
			Rows:        len(t.Rows),
		})
	}
	if *storeBench {
		rows, err := runStoreBench()
		if err != nil {
			return fmt.Errorf("store bench: %w", err)
		}
		traj.StoreGet = rows
		fmt.Println("store warm Get (1MiB payload)")
		fmt.Println("  mode       ops     ns/op    bytes/op  allocs/op")
		for _, r := range rows {
			fmt.Printf("  %-8s %6d %9d %11d %10.1f\n",
				r.Mode, r.Ops, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
	}
	if *engineBench {
		rows, err := runEngineBench(*seed)
		if err != nil {
			return fmt.Errorf("engine bench: %w", err)
		}
		traj.EngineObserver = rows
		fmt.Printf("engine observer overhead (ring n=%d, reused network)\n", rows[0].N)
		fmt.Println("  mode       ops     ns/op  allocs/op  rounds/op    msgs/op  samples")
		for _, r := range rows {
			fmt.Printf("  %-8s %6d %9d %10.1f %10d %10d %8d\n",
				r.Mode, r.Ops, r.NsPerOp, r.AllocsPerOp, r.RoundsPerOp, r.MsgsPerOp, r.SamplesKept)
		}
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(&traj, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: wrote trajectory to %s\n", *jsonPath)
	}
	return nil
}

// runEngineBench solves the same ring instance repeatedly on one reused
// network with the round observer disarmed and then armed with a
// profile-sized RoundRecorder, reporting per-solve wall time, allocations,
// and the engine's own cost counters.
// The disarmed row is the baseline every solve pays; the armed row is what
// -profile-rounds adds per job.
func runEngineBench(seed int64) ([]engineObsRow, error) {
	const n, ops = 96, 20
	g, err := graph.ByFamily("ring", n, seed)
	if err != nil {
		return nil, err
	}
	opt := ecss.DefaultOptions()
	net := congest.NewNetwork(g)
	if _, err := ecss.SolveOn(net, opt); err != nil { // warm engine scratch
		return nil, err
	}

	var rows []engineObsRow
	for _, mode := range []struct {
		name string
		rec  *congest.RoundRecorder
	}{
		{"disarmed", nil},
		{"armed", congest.NewRoundRecorder(512, 1)},
	} {
		var rounds, msgs int64
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		begin := time.Now()
		for i := 0; i < ops; i++ {
			net.ResetAccounting()
			if mode.rec != nil {
				mode.rec.Reset()
				net.Observer = mode.rec
			}
			res, err := ecss.SolveOn(net, opt)
			net.Observer = nil
			if err != nil {
				return nil, fmt.Errorf("%s solve %d: %w", mode.name, i, err)
			}
			rounds += res.Stats.TotalRounds()
			msgs += res.Stats.Messages
		}
		elapsed := time.Since(begin)
		runtime.ReadMemStats(&after)
		row := engineObsRow{
			Mode:        mode.name,
			N:           n,
			Ops:         ops,
			NsPerOp:     elapsed.Nanoseconds() / ops,
			AllocsPerOp: float64(after.Mallocs-before.Mallocs) / ops,
			RoundsPerOp: rounds / ops,
			MsgsPerOp:   msgs / ops,
		}
		if mode.rec != nil {
			row.SamplesKept = len(mode.rec.Samples())
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runStoreBench measures a warm 1MiB store read in both modes. The "mmap"
// row pins and releases an already-mapped view (the serving hot path after
// PR 9); the "readfile" row opens a NoMmap store, where every Get re-reads
// and re-verifies the object file — the pre-mmap cost model.
func runStoreBench() ([]storeGetRow, error) {
	payload := make([]byte, 0, 1<<20+32)
	block := sha256.Sum256([]byte{42})
	for len(payload) < 1<<20 {
		payload = append(payload, block[:]...)
		block = sha256.Sum256(block[:])
	}
	payload = payload[:1<<20]
	key := sha256.Sum256([]byte("bench-store-get"))
	ghash := sha256.Sum256([]byte("bench-graph"))
	opts := sha256.Sum256([]byte("bench-options"))

	var rows []storeGetRow
	for _, mode := range []struct {
		name   string
		noMmap bool
		ops    int
	}{
		{"mmap", false, 20000},
		{"readfile", true, 200},
	} {
		dir, err := os.MkdirTemp("", "bench-store-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		s, err := store.OpenWith(dir, store.Options{NoMmap: mode.noMmap})
		if err != nil {
			return nil, err
		}
		if err := s.Put(key, ghash, opts, payload); err != nil {
			return nil, err
		}
		if err := s.Flush(); err != nil {
			return nil, err
		}
		get := func() error {
			v, ok := s.GetView(key)
			if !ok {
				return fmt.Errorf("%s: warm GetView missed", mode.name)
			}
			if len(v.Bytes()) != len(payload) {
				return fmt.Errorf("%s: short view", mode.name)
			}
			v.Release()
			return nil
		}
		if err := get(); err != nil { // warm the mapping / page cache
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		begin := time.Now()
		for i := 0; i < mode.ops; i++ {
			if err := get(); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(begin)
		runtime.ReadMemStats(&after)
		if err := s.Close(); err != nil {
			return nil, err
		}
		rows = append(rows, storeGetRow{
			Mode:         mode.name,
			PayloadBytes: int64(len(payload)),
			Ops:          mode.ops,
			NsPerOp:      elapsed.Nanoseconds() / int64(mode.ops),
			BytesPerOp:   int64((after.TotalAlloc - before.TotalAlloc)) / int64(mode.ops),
			AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / float64(mode.ops),
		})
	}
	return rows, nil
}
