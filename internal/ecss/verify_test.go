package ecss

import (
	"strings"
	"testing"

	"twoecss/internal/graph"
)

// resultFor builds a Result claiming the given edge ids with a consistent
// weight, bypassing Solve, so corruption cases can be staged precisely.
func resultFor(g *graph.Graph, ids []int) *Result {
	return &Result{Edges: ids, Weight: int64(g.TotalWeight(ids))}
}

func TestVerifyAcceptsValidSolution(t *testing.T) {
	g := gen2EC(21, 40, 40, graph.WeightUniform)
	res, _, err := Solve(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatalf("valid solution rejected: %v", err)
	}
}

func TestVerifyRejectsDroppedTreeEdge(t *testing.T) {
	g := gen2EC(22, 40, 40, graph.WeightUniform)
	res, _, err := Solve(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Drop one MST edge from the solution (a solution edge that is not part
	// of the augmentation): the subgraph either disconnects or the
	// remaining incident edges become bridges.
	aug := map[int]bool{}
	for _, id := range res.TAP.OrigEdges {
		aug[id] = true
	}
	treeID := -1
	for _, id := range res.Edges {
		if !aug[id] {
			treeID = id
			break
		}
	}
	if treeID < 0 {
		t.Fatal("no tree edge found in solution")
	}
	var kept []int
	for _, id := range res.Edges {
		if id != treeID {
			kept = append(kept, id)
		}
	}
	err = Verify(g, resultFor(g, kept))
	if err == nil {
		t.Fatal("solution with a dropped tree edge accepted")
	}
	if !strings.Contains(err.Error(), "connected") && !strings.Contains(err.Error(), "bridge") {
		t.Fatalf("error %q does not describe the structural failure", err)
	}
}

func TestVerifyRejectsNon2ECSubgraph(t *testing.T) {
	// A 4-cycle: the full cycle verifies; any tree of it has bridges.
	g := graph.New(4)
	cyc := []int{
		g.MustAddEdge(0, 1, 1),
		g.MustAddEdge(1, 2, 1),
		g.MustAddEdge(2, 3, 1),
		g.MustAddEdge(3, 0, 1),
	}
	if err := Verify(g, resultFor(g, cyc)); err != nil {
		t.Fatalf("full cycle rejected: %v", err)
	}
	err := Verify(g, resultFor(g, cyc[:3]))
	if err == nil {
		t.Fatal("spanning path (all bridges) accepted")
	}
	if !strings.Contains(err.Error(), "bridge") {
		t.Fatalf("error %q does not mention bridges", err)
	}

	// Connected but not spanning: a triangle inside a larger vertex set.
	big := graph.New(6)
	tri := []int{
		big.MustAddEdge(0, 1, 1),
		big.MustAddEdge(1, 2, 1),
		big.MustAddEdge(2, 0, 1),
	}
	err = Verify(big, resultFor(big, tri))
	if err == nil {
		t.Fatal("non-spanning solution accepted")
	}
	if !strings.Contains(err.Error(), "connected") {
		t.Fatalf("error %q does not describe the spanning failure", err)
	}
}

func TestVerifyRejectsDuplicateAndBogusEdgeIDs(t *testing.T) {
	// Triangle plus a pendant bridge edge {2,3}. Listing the bridge twice
	// would fabricate a parallel edge and fool a naive subgraph check.
	g := graph.New(4)
	e01 := g.MustAddEdge(0, 1, 1)
	e12 := g.MustAddEdge(1, 2, 1)
	e20 := g.MustAddEdge(2, 0, 1)
	e23 := g.MustAddEdge(2, 3, 1)

	err := Verify(g, resultFor(g, []int{e01, e12, e20, e23, e23}))
	if err == nil {
		t.Fatal("duplicated edge id accepted")
	}
	if !strings.Contains(err.Error(), "twice") {
		t.Fatalf("error %q does not describe the duplication", err)
	}

	err = Verify(g, &Result{Edges: []int{e01, e12, e20, 99}})
	if err == nil {
		t.Fatal("out-of-range edge id accepted")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("error %q does not describe the range failure", err)
	}

	bad := resultFor(g, []int{e01, e12, e20, e23})
	bad.Weight += 5
	err = Verify(g, bad)
	if err == nil {
		t.Fatal("wrong claimed weight accepted")
	}
	if !strings.Contains(err.Error(), "weight") {
		t.Fatalf("error %q does not describe the weight mismatch", err)
	}

	if err := Verify(g, nil); err == nil {
		t.Fatal("nil result accepted")
	}
}
