package congest

import (
	"testing"

	"twoecss/internal/graph"
)

// The benchmark handlers below keep their own reusable outbox buffers and
// static payloads, so every allocation the benchmarks report belongs to the
// engine itself. BenchmarkRelayRing isolates per-round overhead with a tiny
// active set (one live node per round); BenchmarkFloodGrid and
// BenchmarkDenseGrid exercise the full routing/bandwidth-accounting path.

var floodPayload = []Word{7}

func BenchmarkFloodGrid(b *testing.B) {
	g := graph.Grid(64, 64, graph.DefaultGenConfig(1))
	net := NewNetwork(g)
	seen := make([]bool, g.N)
	fresh := make([]bool, g.N)
	out := make([][]Msg, g.N)
	for v := 0; v < g.N; v++ {
		out[v] = make([]Msg, 0, g.Degree(v))
	}
	handler := func(v int, inbox []Msg) ([]Msg, bool) {
		if len(inbox) > 0 && !seen[v] {
			seen[v] = true
			fresh[v] = true
		}
		if fresh[v] {
			fresh[v] = false
			buf := out[v][:0]
			for _, id := range g.Incident(v) {
				buf = append(buf, Msg{EdgeID: id, From: v, Data: floodPayload})
			}
			return buf, false
		}
		return nil, false
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range seen {
			seen[v] = false
			fresh[v] = false
		}
		seen[0], fresh[0] = true, true
		if err := net.Run(handler, []int{0}, 10000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rounds := net.Stats().SimulatedRounds
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
}

// BenchmarkRelayRing passes one token around a 256-ring for 16 laps per op:
// 4096 rounds with a single scheduled node per round. The old engine paid an
// O(N) schedule scan plus a map allocation every round here.
func BenchmarkRelayRing(b *testing.B) {
	const n = 256
	const laps = 16
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n, 1)
	}
	net := NewNetwork(g)
	hops := 0
	out := make([]Msg, 0, 1)
	handler := func(v int, inbox []Msg) ([]Msg, bool) {
		if hops >= laps*n {
			return nil, false
		}
		hops++
		out = out[:0]
		out = append(out, Msg{EdgeID: v, From: v, Data: floodPayload})
		return out, false
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hops = 0
		if err := net.Run(handler, []int{0}, laps*n+10); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rounds := net.Stats().SimulatedRounds
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
}

// BenchmarkDenseGrid keeps every node of a 32x32 grid active for 64 rounds,
// sending one word on every incident edge per round: the worst case for the
// bandwidth-accounting and delivery path.
func BenchmarkDenseGrid(b *testing.B) {
	const rounds = 64
	g := graph.Grid(32, 32, graph.DefaultGenConfig(1))
	net := NewNetwork(g)
	left := make([]int, g.N)
	out := make([][]Msg, g.N)
	for v := 0; v < g.N; v++ {
		out[v] = make([]Msg, 0, g.Degree(v))
	}
	handler := func(v int, inbox []Msg) ([]Msg, bool) {
		if left[v] == 0 {
			return nil, false
		}
		left[v]--
		buf := out[v][:0]
		for _, id := range g.Incident(v) {
			buf = append(buf, Msg{EdgeID: id, From: v, Data: floodPayload})
		}
		return buf, left[v] > 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range left {
			left[v] = rounds
		}
		if err := net.Run(handler, nil, rounds+10); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sim := net.Stats().SimulatedRounds
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sim), "ns/round")
}
