// Package experiments defines the reproduction experiments E1-E12 (see
// DESIGN.md): each one turns a theorem or claim of the paper into a
// measurable run and renders a table row set. Every experiment is a list of
// independent cells (family × size × seed) evaluated on a worker pool (see
// parallel.go) with deterministic row order. The same runners back
// cmd/bench and the root-level testing.B benchmarks.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"twoecss/internal/baseline"
	"twoecss/internal/congest"
	"twoecss/internal/ecss"
	"twoecss/internal/graph"
	"twoecss/internal/layering"
	"twoecss/internal/mst"
	"twoecss/internal/primitives"
	"twoecss/internal/setcover"
	"twoecss/internal/shortcuts"
	"twoecss/internal/tap"
	"twoecss/internal/tree"
)

// Table is a rendered experiment result.
type Table struct {
	ID, Title string
	Columns   []string
	Rows      [][]string
	Notes     []string
	// Rounds and Messages accumulate the engine statistics of every
	// network the experiment ran; cmd/bench -json records them as the
	// benchmark trajectory.
	Rounds, Messages int64
}

// Render prints the table in a fixed-width layout.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func f(format string, args ...interface{}) string { return fmt.Sprintf(format, args...) }

// cellSeed derives an independent seed for cell i of an experiment, so
// cells share no random state and can run on any worker.
func cellSeed(seed int64, i int) int64 { return seed + int64(i+1)*1000003 }

// family generates one instance of the named graph family.
func family(name string, n int, seed int64) (*graph.Graph, error) {
	cfg := graph.DefaultGenConfig(seed)
	switch name {
	case "er":
		p := 4 * math.Log(float64(n)) / float64(n)
		g := graph.ErdosRenyi(n, p, cfg)
		if _, err := graph.Ensure2EC(g, cfg); err != nil {
			return nil, err
		}
		return g, nil
	case "grid":
		side := int(math.Sqrt(float64(n)))
		if side < 2 {
			side = 2
		}
		return graph.Grid(side, side, cfg), nil
	case "ring":
		return graph.RingWithChords(n, n/4, cfg), nil
	case "treeleafcycle":
		depth := 1
		for (1<<(depth+2))-1 <= n {
			depth++
		}
		return graph.TreeLeafCycle(depth, cfg), nil
	case "random":
		g := graph.RandomSpanningTreePlus(n, n, cfg)
		if _, err := graph.Ensure2EC(g, cfg); err != nil {
			return nil, err
		}
		return g, nil
	default:
		return nil, fmt.Errorf("experiments: unknown family %q", name)
	}
}

// E1 — Theorem 1.1: certified approximation of the (5+eps) 2-ECSS
// algorithm across graph families.
func E1(sizes []int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Theorem 1.1 — (5+eps)-approx 2-ECSS, certified ratios",
		Columns: []string{"family", "n", "m", "weight", "lower-bound",
			"certified-ratio", "bound(5+eps)", "rounds"},
		Notes: []string{"certified-ratio = weight / max(w(MST), dualLB/2); OPT-relative ratio is lower"},
	}
	fams := []string{"er", "grid", "ring", "treeleafcycle"}
	err := runCells(t, len(fams)*len(sizes), func(i int) (cellOut, error) {
		var c cellOut
		fam, n := fams[i/len(sizes)], sizes[i%len(sizes)]
		g, err := family(fam, n, seed)
		if err != nil {
			return c, err
		}
		opt := ecss.DefaultOptions()
		res, net, err := ecss.Solve(g, opt)
		if err != nil {
			return c, err
		}
		if err := ecss.Verify(g, res); err != nil {
			return c, err
		}
		c.addStats(net)
		c.rows = [][]string{{
			fam, f("%d", g.N), f("%d", g.M()), f("%d", res.Weight),
			f("%.1f", res.LowerBound), f("%.3f", res.CertifiedRatio),
			f("%.2f", 5+opt.Eps), f("%d", net.Stats().TotalRounds()),
		}}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E2 — Theorem 4.19: (4+eps)-approx TAP against the exact optimum on path
// instances (weighted interval covering) and the exact G' optimum
// (arborescence) on random instances.
func E2(sizes []int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "Theorem 4.19 — (4+eps)-approx weighted TAP vs exact optima",
		Columns: []string{"instance", "n", "tap-weight", "opt", "ratio",
			"bound", "virt-weight", "opt(G')", "ratio(G')", "bound(G')"},
	}
	eps := 0.25
	err := runCells(t, len(sizes), func(i int) (cellOut, error) {
		var c cellOut
		n := sizes[i]
		cfg := graph.DefaultGenConfig(seed + int64(n))
		g := graph.PathWithIntervals(n, n, cfg)
		net := congest.NewNetwork(g)
		bfs, err := primitives.BuildBFS(net, 0)
		if err != nil {
			return c, err
		}
		// The tree is the path itself.
		treeIDs := make([]int, 0, n-1)
		var ivs []baseline.Interval
		for id, e := range g.Edges {
			if (e.U+1 == e.V || e.V+1 == e.U) && len(treeIDs) < n-1 && isPathEdge(treeIDs, id, e) {
				treeIDs = append(treeIDs, id)
			}
		}
		rt, err := tree.NewFromEdgeSet(g, 0, treeIDs)
		if err != nil {
			return c, err
		}
		inTree := map[int]bool{}
		for _, id := range treeIDs {
			inTree[id] = true
		}
		for id, e := range g.Edges {
			if inTree[id] {
				continue
			}
			l, r := e.U, e.V
			if l > r {
				l, r = r, l
			}
			ivs = append(ivs, baseline.Interval{L: l, R: r, W: int64(e.W)})
		}
		opt, _, err := baseline.ExactPathTAP(n, ivs)
		if err != nil {
			return c, err
		}
		solver, err := tap.NewSolver(net, bfs, rt)
		if err != nil {
			return c, err
		}
		res, err := solver.SolveWeighted(eps, tap.Cover2)
		if err != nil {
			return c, err
		}
		_, _, optVirt, err := baseline.KhullerThurimella(rt)
		if err != nil {
			return c, err
		}
		c.addStats(net)
		c.rows = [][]string{{
			f("path+intervals"), f("%d", n), f("%d", res.Weight), f("%d", opt),
			f("%.3f", float64(res.Weight)/float64(opt)), f("%.2f", 4+2*eps),
			f("%d", res.VirtWeight), f("%d", optVirt),
			f("%.3f", float64(res.VirtWeight)/float64(optVirt)),
			f("%.2f", 2*(1+eps)*(1+eps)),
		}}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// isPathEdge keeps the first copy of each consecutive pair.
func isPathEdge(have []int, id int, e graph.Edge) bool {
	lo := e.U
	if e.V < lo {
		lo = e.V
	}
	return lo == len(have)
}

// E3 — Theorem 1.1 round bound: rounds normalized by (D+sqrt n)log^2(n)/eps.
func E3(sizes []int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Theorem 1.1 — round complexity scaling",
		Columns: []string{"n", "m", "D", "simulated", "charged", "total", "normalized"},
		Notes:   []string{"normalized = total / ((D+sqrt n) * log2(n)^2 / eps); flat = matches bound"},
	}
	eps := 0.25
	err := runCells(t, len(sizes), func(i int) (cellOut, error) {
		var c cellOut
		n := sizes[i]
		g, err := family("er", n, seed)
		if err != nil {
			return c, err
		}
		diam, err := g.DiameterApprox()
		if err != nil {
			return c, err
		}
		opt := ecss.DefaultOptions()
		opt.Eps = eps
		_, net, err := ecss.Solve(g, opt)
		if err != nil {
			return c, err
		}
		st := net.Stats()
		lg := math.Log2(float64(n))
		norm := float64(st.TotalRounds()) / ((float64(diam) + math.Sqrt(float64(n))) * lg * lg / eps)
		c.addStats(net)
		c.rows = [][]string{{
			f("%d", n), f("%d", g.M()), f("%d", diam), f("%d", st.SimulatedRounds),
			f("%d", st.ChargedRounds), f("%d", st.TotalRounds()), f("%.3f", norm),
		}}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E4 — Theorem 1.2: the shortcut-based O(log n) algorithm; quality and
// rounds on a low-diameter planar-like family vs a worst-case-style family.
func E4(sizes []int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Theorem 1.2 — O(log n)-approx TAP in O~(SC+D) rounds",
		Columns: []string{"family", "builder", "n", "D", "weight", "greedy",
			"alpha+beta", "D+sqrt(n)", "rounds"},
		Notes: []string{"alpha+beta below D+sqrt(n) on the nice family shows the shortcut advantage"},
	}
	fams := []string{"treeleafcycle", "er"}
	err := runCells(t, len(sizes)*len(fams), func(i int) (cellOut, error) {
		var c cellOut
		n, fam := sizes[i/len(fams)], fams[i%len(fams)]
		g, err := family(fam, n, seed)
		if err != nil {
			return c, err
		}
		diam, err := g.DiameterApprox()
		if err != nil {
			return c, err
		}
		net := congest.NewNetwork(g)
		bfs, err := primitives.BuildBFS(net, 0)
		if err != nil {
			return c, err
		}
		rt, err := mst.KruskalTree(g, 0, net)
		if err != nil {
			return c, err
		}
		var b shortcuts.Builder
		if fam == "treeleafcycle" {
			b = &shortcuts.SteinerBuilder{G: g, BFS: bfs}
		} else {
			b = &shortcuts.GlobalBFSBuilder{G: g, BFS: bfs}
		}
		solver, err := setcover.NewSolver(net, bfs, rt, b)
		if err != nil {
			return c, err
		}
		rng := rand.New(rand.NewSource(seed))
		res, err := solver.Solve(setcover.DefaultOptions(g.N, rng))
		if err != nil {
			return c, err
		}
		gw, _, err := baseline.GreedyTAP(rt)
		if err != nil {
			return c, err
		}
		c.addStats(net)
		c.rows = [][]string{{
			fam, b.Name(), f("%d", g.N), f("%d", diam), f("%d", res.Weight),
			f("%d", gw), f("%d", res.MaxShortcutQuality),
			f("%.0f", float64(diam)+math.Sqrt(float64(g.N))),
			f("%d", net.Stats().TotalRounds()),
		}}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E5 — Claim 4.7: layer counts stay under log2(#leaves)+1.
func E5(sizes []int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Claim 4.7 — number of layers is O(log n)",
		Columns: []string{"family", "n", "leaves", "layers", "log2-bound", "paths"},
	}
	fams := []struct {
		name string
		gen  func(n int, s int64) *graph.Graph
	}{
		{"path", func(n int, s int64) *graph.Graph {
			g := graph.New(n)
			for v := 1; v < n; v++ {
				g.MustAddEdge(v-1, v, 1)
			}
			return g
		}},
		{"star", func(n int, s int64) *graph.Graph {
			g := graph.New(n)
			for v := 1; v < n; v++ {
				g.MustAddEdge(0, v, 1)
			}
			return g
		}},
		{"randomtree", func(n int, s int64) *graph.Graph {
			cfg := graph.GenConfig{Mode: graph.WeightUnit, MaxW: 1, Rng: rand.New(rand.NewSource(s))}
			return graph.RandomSpanningTreePlus(n, 0, cfg)
		}},
		{"caterpillar", func(n int, s int64) *graph.Graph {
			return graph.Caterpillar(n/4+1, 3, graph.DefaultGenConfig(s))
		}},
	}
	err := runCells(t, len(fams)*len(sizes), func(i int) (cellOut, error) {
		var c cellOut
		fam, n := fams[i/len(sizes)], sizes[i%len(sizes)]
		g := fam.gen(n, cellSeed(seed, i))
		rt, err := tree.BFSTree(g, 0)
		if err != nil {
			return c, err
		}
		l, err := layering.Build(rt)
		if err != nil {
			return c, err
		}
		leaves := 0
		for v := 0; v < g.N; v++ {
			if len(rt.Children[v]) == 0 {
				leaves++
			}
		}
		bound := 1
		for 1<<bound < leaves {
			bound++
		}
		c.rows = [][]string{{
			fam.name, f("%d", g.N), f("%d", leaves), f("%d", l.NumLayers),
			f("%d", bound+1), f("%d", len(l.Paths)),
		}}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E6 — Section 3.6.1: unweighted TAP 2-approximation on G' via MIS+petals.
func E6(sizes []int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Section 3.6.1 — unweighted TAP: |aug| <= 2*MIS on G'",
		Columns: []string{"n", "m", "aug-size", "mis-size", "ratio<=2", "opt", "vs-opt<=4"},
	}
	err := runCells(t, len(sizes), func(i int) (cellOut, error) {
		var c cellOut
		n := sizes[i]
		cfg := graph.GenConfig{Mode: graph.WeightUnit, MaxW: 1,
			Rng: rand.New(rand.NewSource(seed + int64(n)))}
		g := graph.RandomSpanningTreePlus(n, n/2, cfg)
		if _, err := graph.Ensure2EC(g, cfg); err != nil {
			return c, err
		}
		net := congest.NewNetwork(g)
		bfs, err := primitives.BuildBFS(net, 0)
		if err != nil {
			return c, err
		}
		rt, err := mst.KruskalTree(g, 0, net)
		if err != nil {
			return c, err
		}
		solver, err := tap.NewSolver(net, bfs, rt)
		if err != nil {
			return c, err
		}
		res, err := solver.SolveUnweighted()
		if err != nil {
			return c, err
		}
		optStr, vsOpt := "-", "-"
		if len(rt.NonTreeEdgeIDs()) <= 18 {
			opt, _, err := baseline.BruteForceTAP(rt, 18)
			if err == nil {
				optStr = f("%d", opt)
				vsOpt = f("%.2f", float64(len(res.OrigEdges))/float64(opt))
			}
		}
		c.addStats(net)
		c.rows = [][]string{{
			f("%d", g.N), f("%d", g.M()), f("%d", len(res.VEdges)), f("%d", res.MISSize),
			f("%.2f", float64(len(res.VEdges))/float64(res.MISSize)), optStr, vsOpt,
		}}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E7 — ablation: reverse-delete variants Cover4 vs Cover2.
func E7(sizes []int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Ablation — reverse-delete c=4 (Sec 3.5) vs c=2 (Sec 4.6)",
		Columns: []string{"n", "variant", "weight", "max-cover-Rk", "certified-ratio(G')", "rounds"},
	}
	eps := 0.25
	err := runCells(t, len(sizes), func(i int) (cellOut, error) {
		var c cellOut
		n := sizes[i]
		g, err := family("random", n, seed)
		if err != nil {
			return c, err
		}
		for _, variant := range []tap.Variant{tap.Cover4, tap.Cover2} {
			net := congest.NewNetwork(g)
			bfs, err := primitives.BuildBFS(net, 0)
			if err != nil {
				return c, err
			}
			rt, err := mst.KruskalTree(g, 0, net)
			if err != nil {
				return c, err
			}
			solver, err := tap.NewSolver(net, bfs, rt)
			if err != nil {
				return c, err
			}
			res, err := solver.SolveWeighted(eps, variant)
			if err != nil {
				return c, err
			}
			ratio := 0.0
			if res.DualLB > 0 {
				ratio = float64(res.VirtWeight) / res.DualLB
			}
			c.addStats(net)
			c.rows = append(c.rows, []string{
				f("%d", n), variant.String(), f("%d", res.Weight),
				f("%d", res.MaxCoverRk), f("%.3f", ratio),
				f("%d", net.Stats().TotalRounds()),
			})
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E8 — comparison against baselines on instances with known optimum.
func E8(count int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Baselines — ours vs greedy vs Khuller-Thurimella vs exact (TAP)",
		Columns: []string{"instance", "n", "opt", "ours", "greedy", "kt", "ours/opt", "greedy/opt", "kt/opt"},
	}
	err := runCells(t, count, func(i int) (cellOut, error) {
		var c cellOut
		rng := rand.New(rand.NewSource(cellSeed(seed, i)))
		cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 200, Rng: rng}
		g := graph.RandomSpanningTreePlus(9+rng.Intn(6), 4+rng.Intn(4), cfg)
		if _, err := graph.Ensure2EC(g, cfg); err != nil {
			return c, err
		}
		net := congest.NewNetwork(g)
		bfs, err := primitives.BuildBFS(net, 0)
		if err != nil {
			return c, err
		}
		rt, err := mst.KruskalTree(g, 0, net)
		if err != nil {
			return c, err
		}
		if len(rt.NonTreeEdgeIDs()) > 16 {
			return c, nil // no exact optimum in reach; skip this instance
		}
		opt, _, err := baseline.BruteForceTAP(rt, 16)
		if err != nil {
			return c, err
		}
		solver, err := tap.NewSolver(net, bfs, rt)
		if err != nil {
			return c, err
		}
		res, err := solver.SolveWeighted(0.25, tap.Cover2)
		if err != nil {
			return c, err
		}
		gw, _, err := baseline.GreedyTAP(rt)
		if err != nil {
			return c, err
		}
		kw, _, _, err := baseline.KhullerThurimella(rt)
		if err != nil {
			return c, err
		}
		c.addStats(net)
		c.rows = [][]string{{
			f("random-%d", i), f("%d", g.N), f("%d", opt), f("%d", res.Weight),
			f("%d", gw), f("%d", kw),
			f("%.3f", float64(res.Weight)/float64(opt)),
			f("%.3f", float64(gw)/float64(opt)),
			f("%.3f", float64(kw)/float64(opt)),
		}}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E9 — Figures 1-2 content: layering path structure statistics.
func E9(n int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Figures 1-2 — layering structure of a random tree",
		Columns: []string{"layer", "paths", "edges", "avg-path-len", "max-path-len"},
	}
	cfg := graph.GenConfig{Mode: graph.WeightUnit, MaxW: 1, Rng: rand.New(rand.NewSource(seed))}
	g := graph.RandomSpanningTreePlus(n, 0, cfg)
	rt, err := tree.BFSTree(g, 0)
	if err != nil {
		return nil, err
	}
	l, err := layering.Build(rt)
	if err != nil {
		return nil, err
	}
	for layer := 1; layer <= l.NumLayers; layer++ {
		paths, edges, maxLen := 0, 0, 0
		for _, p := range l.Paths {
			if p.Layer != layer {
				continue
			}
			paths++
			edges += len(p.Edges)
			if len(p.Edges) > maxLen {
				maxLen = len(p.Edges)
			}
		}
		avg := 0.0
		if paths > 0 {
			avg = float64(edges) / float64(paths)
		}
		t.Rows = append(t.Rows, []string{
			f("%d", layer), f("%d", paths), f("%d", edges), f("%.1f", avg), f("%d", maxLen),
		})
	}
	return t, nil
}

// E10 — Lemma 4.18: coverage multiplicity of R_k edges under both variants.
func E10(sizes []int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Lemma 4.18 — max coverage of R_k edges (<=2 improved, <=4 basic)",
		Columns: []string{"n", "cover2-max", "cover4-max", "cover2-ok", "cover4-ok"},
	}
	err := runCells(t, len(sizes), func(i int) (cellOut, error) {
		var c cellOut
		n := sizes[i]
		g, err := family("random", n, seed+int64(n))
		if err != nil {
			return c, err
		}
		maxOf := func(variant tap.Variant) (int, error) {
			net := congest.NewNetwork(g)
			bfs, err := primitives.BuildBFS(net, 0)
			if err != nil {
				return 0, err
			}
			rt, err := mst.KruskalTree(g, 0, net)
			if err != nil {
				return 0, err
			}
			solver, err := tap.NewSolver(net, bfs, rt)
			if err != nil {
				return 0, err
			}
			res, err := solver.SolveWeighted(0.25, variant)
			if err != nil {
				return 0, err
			}
			c.addStats(net)
			return res.MaxCoverRk, nil
		}
		c2, err := maxOf(tap.Cover2)
		if err != nil {
			return c, err
		}
		c4, err := maxOf(tap.Cover4)
		if err != nil {
			return c, err
		}
		c.rows = [][]string{{
			f("%d", n), f("%d", c2), f("%d", c4), f("%v", c2 <= 2), f("%v", c4 <= 4),
		}}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E11 — Theorems 5.1-5.3: tool correctness plus realized shortcut quality.
func E11(sizes []int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Theorems 5.1-5.3 — tree tools over shortcuts",
		Columns: []string{"family", "n", "hierarchy-levels", "max-alpha+beta", "rounds"},
	}
	fams := []string{"treeleafcycle", "grid"}
	err := runCells(t, len(fams)*len(sizes), func(i int) (cellOut, error) {
		var c cellOut
		fam, n := fams[i/len(sizes)], sizes[i%len(sizes)]
		g, err := family(fam, n, seed)
		if err != nil {
			return c, err
		}
		net := congest.NewNetwork(g)
		bfs, err := primitives.BuildBFS(net, 0)
		if err != nil {
			return c, err
		}
		rt, err := mst.KruskalTree(g, 0, net)
		if err != nil {
			return c, err
		}
		tl, err := shortcuts.NewTools(net, rt, &shortcuts.SteinerBuilder{G: g, BFS: bfs})
		if err != nil {
			return c, err
		}
		if _, err := tl.HeavyLightLabels(); err != nil {
			return c, err
		}
		c.addStats(net)
		c.rows = [][]string{{
			fam, f("%d", g.N), f("%d", tl.H.Depth()), f("%d", tl.MaxQuality),
			f("%d", net.Stats().TotalRounds()),
		}}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// E12 — Lemmas 5.4-5.5: XOR coverage detector accuracy and cover counts.
func E12(trials int, n int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Lemmas 5.4-5.5 — XOR coverage detection and cover counting",
		Columns: []string{"trial", "n", "tree-edges", "detector-errors", "count-errors"},
	}
	err := runCells(t, trials, func(trial int) (cellOut, error) {
		var c cellOut
		rng := rand.New(rand.NewSource(cellSeed(seed, trial)))
		cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 50, Rng: rng}
		g := graph.RandomSpanningTreePlus(n, n, cfg)
		net := congest.NewNetwork(g)
		bfs, err := primitives.BuildBFS(net, 0)
		if err != nil {
			return c, err
		}
		rt, err := tree.BFSTree(g, 0)
		if err != nil {
			return c, err
		}
		tl, err := shortcuts.NewTools(net, rt, &shortcuts.SteinerBuilder{G: g, BFS: bfs})
		if err != nil {
			return c, err
		}
		s := map[int]bool{}
		for _, id := range rt.NonTreeEdgeIDs() {
			if rng.Intn(2) == 0 {
				s[id] = true
			}
		}
		det, err := tl.CoveredDetection(s, rng)
		if err != nil {
			return c, err
		}
		detErr := 0
		for cv := 0; cv < g.N; cv++ {
			if cv == rt.Root {
				continue
			}
			want := false
			for id := range s {
				e := g.Edges[id]
				if rt.Covers(e.U, e.V, cv) {
					want = true
					break
				}
			}
			if det[cv] != want {
				detErr++
			}
		}
		marked := make([]bool, g.N)
		for v := range marked {
			marked[v] = v != rt.Root && rng.Intn(2) == 0
		}
		counts, err := tl.CoverCount(marked)
		if err != nil {
			return c, err
		}
		cntErr := 0
		for _, id := range rt.NonTreeEdgeIDs() {
			e := g.Edges[id]
			want := 0
			for cv := 0; cv < g.N; cv++ {
				if cv != rt.Root && marked[cv] && rt.Covers(e.U, e.V, cv) {
					want++
				}
			}
			if counts[id] != want {
				cntErr++
			}
		}
		c.addStats(net)
		c.rows = [][]string{{
			f("%d", trial), f("%d", g.N), f("%d", g.N-1), f("%d", detErr), f("%d", cntErr),
		}}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Spec names one experiment together with its default-size runner;
// cmd/bench iterates this registry.
type Spec struct {
	ID  string
	Run func(seed int64) (*Table, error)
}

// Specs returns the registry of all experiments with moderate default sizes.
func Specs() []Spec {
	return []Spec{
		{"E1", func(s int64) (*Table, error) { return E1([]int{64, 128, 256}, s) }},
		{"E2", func(s int64) (*Table, error) { return E2([]int{40, 80, 160}, s) }},
		{"E3", func(s int64) (*Table, error) { return E3([]int{64, 128, 256, 512}, s) }},
		{"E4", func(s int64) (*Table, error) { return E4([]int{63, 127}, s) }},
		{"E5", func(s int64) (*Table, error) { return E5([]int{64, 256, 1024}, s) }},
		{"E6", func(s int64) (*Table, error) { return E6([]int{32, 64, 128}, s) }},
		{"E7", func(s int64) (*Table, error) { return E7([]int{48, 96}, s) }},
		{"E8", func(s int64) (*Table, error) { return E8(8, s) }},
		{"E9", func(s int64) (*Table, error) { return E9(300, s) }},
		{"E10", func(s int64) (*Table, error) { return E10([]int{40, 80, 160}, s) }},
		{"E11", func(s int64) (*Table, error) { return E11([]int{63, 127}, s) }},
		{"E12", func(s int64) (*Table, error) { return E12(4, 60, s) }},
	}
}
