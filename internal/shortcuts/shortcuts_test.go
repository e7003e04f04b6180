package shortcuts

import (
	"math"
	"math/rand"
	"testing"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
	"twoecss/internal/primitives"
	"twoecss/internal/tree"
)

func fixtureNet(t *testing.T, g *graph.Graph) (*congest.Network, *tree.Rooted) {
	t.Helper()
	net := congest.NewNetwork(g)
	bfs, err := primitives.BuildBFS(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net, bfs
}

// randomConnectedPartition grows parts from random seeds.
func randomConnectedPartition(g *graph.Graph, rng *rand.Rand, parts int) []int {
	of := make([]int, g.N)
	for v := range of {
		of[v] = -1
	}
	var frontier []int
	for p := 0; p < parts && p < g.N; p++ {
		for {
			v := rng.Intn(g.N)
			if of[v] < 0 {
				of[v] = p
				frontier = append(frontier, v)
				break
			}
		}
	}
	for len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		v := frontier[i]
		grew := false
		for _, id := range g.Incident(v) {
			u := g.Edges[id].Other(v)
			if of[u] < 0 {
				of[u] = of[v]
				frontier = append(frontier, u)
				grew = true
				break
			}
		}
		if !grew {
			frontier[i] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
		}
	}
	return of
}

func TestPartitionValidation(t *testing.T) {
	g := graph.Grid(4, 4, graph.DefaultGenConfig(1))
	of := make([]int, g.N)
	of[0], of[15] = 1, 1 // corners: disconnected part
	for v := 1; v < 15; v++ {
		of[v] = 0
	}
	if _, err := NewPartition(g, of); err == nil {
		t.Fatal("disconnected part accepted")
	}
	if _, err := NewPartition(g, []int{0}); err == nil {
		t.Fatal("short assignment accepted")
	}
}

func TestBuildersQualityAndAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(6, 6, graph.DefaultGenConfig(2))},
		{"treeleafcycle", graph.TreeLeafCycle(5, graph.DefaultGenConfig(3))},
		{"er", graph.ErdosRenyi(48, 0.12, graph.DefaultGenConfig(4))},
	}
	for _, tg := range graphs {
		for trial := 0; trial < 3; trial++ {
			of := randomConnectedPartition(tg.g, rng, 2+rng.Intn(6))
			part, err := NewPartition(tg.g, of)
			if err != nil {
				t.Fatal(err)
			}
			net, bfs := fixtureNet(t, tg.g)
			builders := []Builder{
				&TrivialBuilder{G: tg.g},
				&GlobalBFSBuilder{G: tg.g, BFS: bfs},
				&SteinerBuilder{G: tg.g, BFS: bfs},
			}
			for _, b := range builders {
				sc, err := b.Build(part)
				if err != nil {
					t.Fatalf("%s/%s: %v", tg.name, b.Name(), err)
				}
				if sc.Alpha < 1 || sc.Beta < 1 {
					t.Fatalf("%s/%s: degenerate quality %d/%d", tg.name, b.Name(), sc.Alpha, sc.Beta)
				}
				// Aggregate: per-part max of vertex ids must equal the
				// true per-part max for every member.
				x := make([]Word, tg.g.N)
				for v := range x {
					x[v] = Word(v)
				}
				max := func(a, b Word) Word {
					if a > b {
						return a
					}
					return b
				}
				got, err := PartwiseAggregate(net, part, sc, x, max)
				if err != nil {
					t.Fatalf("%s/%s: %v", tg.name, b.Name(), err)
				}
				want := map[int]Word{}
				for v, p := range of {
					if Word(v) > want[p] {
						want[p] = Word(v)
					}
				}
				for v, p := range of {
					if got[v] != want[p] {
						t.Fatalf("%s/%s: vertex %d got %d want %d", tg.name, b.Name(), v, got[v], want[p])
					}
				}
			}
		}
	}
}

func TestGlobalBFSWorstCaseBound(t *testing.T) {
	// alpha+beta must be O(D + sqrt n) on any partition.
	g := graph.ErdosRenyi(100, 0.08, graph.DefaultGenConfig(7))
	rng := rand.New(rand.NewSource(8))
	_, bfs := fixtureNet(t, g)
	b := &GlobalBFSBuilder{G: g, BFS: bfs}
	diam, err := g.DiameterApprox()
	if err != nil {
		t.Fatal(err)
	}
	bound := 8 * (diam + int(math.Sqrt(100)) + 2)
	for trial := 0; trial < 5; trial++ {
		of := randomConnectedPartition(g, rng, 1+rng.Intn(20))
		part, err := NewPartition(g, of)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := b.Build(part)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Quality() > bound {
			t.Fatalf("global-bfs quality %d exceeds O(D+sqrt n) bound %d", sc.Quality(), bound)
		}
	}
}

func TestHierarchyStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(300)
		cfg := graph.GenConfig{Mode: graph.WeightUnit, MaxW: 1, Rng: rng}
		g := graph.RandomSpanningTreePlus(n, 0, cfg)
		rt, err := tree.BFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := BuildHierarchy(rt)
		if err != nil {
			t.Fatal(err)
		}
		lg := 1
		for 1<<lg < n {
			lg++
		}
		if h.Depth() > 2*lg+3 {
			t.Fatalf("n=%d: hierarchy depth %d not O(log n)", n, h.Depth())
		}
		// Levels must coarsen: same level-i fragment implies same
		// level-(i+1) fragment.
		for li := 0; li+1 < h.Depth(); li++ {
			fmap := map[int]int{}
			for v := 0; v < n; v++ {
				f := h.Levels[li][v]
				nf := h.Levels[li+1][v]
				if prev, ok := fmap[f]; ok && prev != nf {
					t.Fatalf("level %d fragment %d splits at level %d", li, f, li+1)
				}
				fmap[f] = nf
			}
		}
		// Top level is a single fragment.
		top := h.Levels[h.Depth()-1]
		for v := 1; v < n; v++ {
			if top[v] != top[0] {
				t.Fatal("top level not a single fragment")
			}
		}
		// Every level's fragments are connected in the tree.
		for _, lv := range h.Levels {
			if _, err := NewPartition(g, lv); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func toolsFixture(t *testing.T, seed int64, n, extra int) (*Tools, *tree.Rooted) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 40, Rng: rng}
	g := graph.RandomSpanningTreePlus(n, extra, cfg)
	net, bfs := fixtureNet(t, g)
	rt, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := NewTools(net, rt, &SteinerBuilder{G: g, BFS: bfs})
	if err != nil {
		t.Fatal(err)
	}
	return tl, rt
}

func TestDescendantsAndAncestorsSum(t *testing.T) {
	tl, rt := toolsFixture(t, 10, 60, 40)
	n := rt.G.N
	x := make([]Word, n)
	for v := range x {
		x[v] = Word(v + 3)
	}
	sum := func(a, b Word) Word { return a + b }
	ds, err := tl.DescendantsSum(x, sum)
	if err != nil {
		t.Fatal(err)
	}
	as, err := tl.AncestorsSum(x, sum)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		var wantD, wantA Word
		for u := 0; u < n; u++ {
			if rt.IsAncestor(v, u) {
				wantD += x[u]
			}
			if rt.IsAncestor(u, v) {
				wantA += x[u]
			}
		}
		if ds[v] != wantD {
			t.Fatalf("descendants sum at %d: %d want %d", v, ds[v], wantD)
		}
		if as[v] != wantA {
			t.Fatalf("ancestors sum at %d: %d want %d", v, as[v], wantA)
		}
	}
	if tl.Net.Stats().SimulatedRounds == 0 {
		t.Fatal("tools billed no simulated rounds")
	}
}

func TestCoveredDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tl, rt := toolsFixture(t, 11, 50, 60)
	nonTree := rt.NonTreeEdgeIDs()
	s := map[int]bool{}
	for _, id := range nonTree {
		if rng.Intn(2) == 0 {
			s[id] = true
		}
	}
	got, err := tl.CoveredDetection(s, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < rt.G.N; c++ {
		if c == rt.Root {
			continue
		}
		want := false
		for id := range s {
			e := rt.G.Edges[id]
			if rt.Covers(e.U, e.V, c) {
				want = true
				break
			}
		}
		if got[c] != want {
			t.Fatalf("covered detection at %d: got %v want %v", c, got[c], want)
		}
	}
}

func TestCoverCount(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tl, rt := toolsFixture(t, 12, 45, 50)
	marked := make([]bool, rt.G.N)
	for v := 0; v < rt.G.N; v++ {
		marked[v] = v != rt.Root && rng.Intn(2) == 0
	}
	got, err := tl.CoverCount(marked)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range rt.NonTreeEdgeIDs() {
		e := rt.G.Edges[id]
		want := 0
		for c := 0; c < rt.G.N; c++ {
			if c != rt.Root && marked[c] && rt.Covers(e.U, e.V, c) {
				want++
			}
		}
		if got[id] != want {
			t.Fatalf("cover count of edge %d: got %d want %d", id, got[id], want)
		}
	}
}

func TestHeavyLightLabels(t *testing.T) {
	tl, rt := toolsFixture(t, 13, 40, 30)
	lb, err := tl.HeavyLightLabels()
	if err != nil {
		t.Fatal(err)
	}
	if lb == nil || len(lb.Labels) != rt.G.N {
		t.Fatal("bad labeling")
	}
}
