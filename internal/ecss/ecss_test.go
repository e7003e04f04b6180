package ecss

import (
	"math/rand"
	"slices"
	"testing"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
	"twoecss/internal/tap"
)

func gen2EC(seed int64, n, extra int, mode graph.WeightMode) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	cfg := graph.GenConfig{Mode: mode, MaxW: 500, Rng: rng}
	g := graph.RandomSpanningTreePlus(n, extra, cfg)
	if _, err := graph.Ensure2EC(g, cfg); err != nil {
		panic(err)
	}
	return g
}

func TestSolveEndToEnd(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"random40", gen2EC(1, 40, 40, graph.WeightUniform)},
		{"random80", gen2EC(2, 80, 60, graph.WeightSkewed)},
		{"ring", graph.RingWithChords(30, 8, graph.DefaultGenConfig(3))},
		{"grid", graph.Grid(6, 7, graph.DefaultGenConfig(4))},
		{"treeleafcycle", graph.TreeLeafCycle(5, graph.DefaultGenConfig(5))},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			res, net, err := Solve(tc.g, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(tc.g, res); err != nil {
				t.Fatal(err)
			}
			// Theorem 1.1 certified ratio: with eps=0.25 the bound is
			// 5+eps; the certificate may be looser than OPT so only the
			// proven bound is asserted.
			if res.CertifiedRatio > 5.5+1e-9 {
				t.Fatalf("certified ratio %.3f exceeds 5.5", res.CertifiedRatio)
			}
			if res.Weight < int64(res.LowerBound) {
				t.Fatalf("weight below its own lower bound")
			}
			if net.Stats().TotalRounds() == 0 {
				t.Fatal("no rounds billed")
			}
		})
	}
}

func TestSolveWithBoruvka(t *testing.T) {
	g := gen2EC(7, 35, 30, graph.WeightUniform)
	opt := DefaultOptions()
	opt.MST = MSTSimulateBoruvka
	res, _, err := Solve(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	// Same tree weight as the charged-Kruskal mode (identical MST).
	res2, _, err := Solve(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeWeight != res2.TreeWeight {
		t.Fatalf("Boruvka and Kruskal disagree on MST weight: %d vs %d", res.TreeWeight, res2.TreeWeight)
	}
}

func TestSolveCover4Variant(t *testing.T) {
	g := gen2EC(9, 45, 45, graph.WeightUniform)
	opt := DefaultOptions()
	opt.Variant = tap.Cover4
	res, _, err := Solve(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	if res.CertifiedRatio > 9.8 {
		t.Fatalf("cover4 certified ratio %.3f exceeds 9+eps bound", res.CertifiedRatio)
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	// Bridge graph.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 0, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 2, 1) // parallel: makes edge {2,3} non-bridge
	res, _, err := Solve(g, DefaultOptions())
	if err != nil {
		t.Fatalf("parallel-edge graph should solve: %v", err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}

	bridge := graph.New(4)
	bridge.MustAddEdge(0, 1, 1)
	bridge.MustAddEdge(1, 2, 1)
	bridge.MustAddEdge(2, 0, 1)
	bridge.MustAddEdge(2, 3, 1)
	if _, _, err := Solve(bridge, DefaultOptions()); err == nil {
		t.Fatal("bridged graph accepted")
	}

	tiny := graph.New(2)
	tiny.MustAddEdge(0, 1, 1)
	if _, _, err := Solve(tiny, DefaultOptions()); err == nil {
		t.Fatal("2-vertex graph accepted")
	}

	disc := graph.New(6)
	disc.MustAddEdge(0, 1, 1)
	disc.MustAddEdge(1, 2, 1)
	disc.MustAddEdge(2, 0, 1)
	disc.MustAddEdge(3, 4, 1)
	disc.MustAddEdge(4, 5, 1)
	disc.MustAddEdge(5, 3, 1)
	if _, _, err := Solve(disc, DefaultOptions()); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestRemovalToleranceOfSolution(t *testing.T) {
	// The defining property of 2-ECSS: removing any single solution edge
	// keeps the subgraph connected.
	g := gen2EC(11, 30, 25, graph.WeightUniform)
	res, _, err := Solve(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sub := g.Subgraph(res.Edges)
	if !sub.TwoEdgeConnected() {
		t.Fatal("solution not 2-edge-connected")
	}
}

func TestStageStatsDeltas(t *testing.T) {
	g := gen2EC(11, 40, 35, graph.WeightUniform)
	opt := DefaultOptions()
	var order []string
	deltas := map[string]congest.Stats{}
	opt.Progress = func(stage string) { order = append(order, "p:"+stage) }
	opt.StageStats = func(stage string, d congest.Stats) {
		order = append(order, "s:"+stage)
		deltas[stage] = d
	}
	res, _, err := Solve(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Per stage: StageStats closes the previous stage before Progress opens
	// the next, and the final stage flushes at return.
	want := []string{"p:bfs", "s:bfs", "p:mst", "s:mst", "p:tap", "s:tap", "p:assemble", "s:assemble"}
	if !slices.Equal(order, want) {
		t.Fatalf("hook order %v, want %v", order, want)
	}
	var sim, charged, msgs int64
	for _, d := range deltas {
		if d.SimulatedRounds < 0 || d.ChargedRounds < 0 || d.Messages < 0 {
			t.Fatalf("negative stage delta: %+v", d)
		}
		sim += d.SimulatedRounds
		charged += d.ChargedRounds
		msgs += d.Messages
	}
	if sim != res.Stats.SimulatedRounds || charged != res.Stats.ChargedRounds || msgs != res.Stats.Messages {
		t.Fatalf("stage deltas sum to %d/%d rounds %d msgs, result bill %d/%d rounds %d msgs",
			sim, charged, msgs, res.Stats.SimulatedRounds, res.Stats.ChargedRounds, res.Stats.Messages)
	}
	if deltas["bfs"].SimulatedRounds == 0 {
		t.Fatal("bfs stage reported zero simulated rounds")
	}
	if deltas["mst"].ChargedRounds == 0 {
		t.Fatal("charged MST stage reported zero charged rounds")
	}
}
