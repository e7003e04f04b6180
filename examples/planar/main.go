// Planar example: the shortcut-based O(log n)-approximation (Theorem 1.2)
// on a low-diameter planar-like network, where low-congestion shortcuts
// beat the sqrt(n) barrier. Compares the realized alpha+beta against
// D + sqrt(n).
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
	"twoecss/internal/mst"
	"twoecss/internal/primitives"
	"twoecss/internal/setcover"
	"twoecss/internal/shortcuts"
)

func main() {
	// A complete binary tree with a leaf cycle: planar, 2-edge-connected,
	// diameter O(log n).
	g := graph.TreeLeafCycle(8, graph.DefaultGenConfig(7))
	diam, err := g.DiameterApprox()
	if err != nil {
		log.Fatal(err)
	}

	net := congest.NewNetwork(g)
	bfs, err := primitives.BuildBFS(net, 0)
	if err != nil {
		log.Fatal(err)
	}
	t, err := mst.KruskalTree(g, 0, net)
	if err != nil {
		log.Fatal(err)
	}
	solver, err := setcover.NewSolver(net, bfs, t,
		&shortcuts.SteinerBuilder{G: g, BFS: bfs})
	if err != nil {
		log.Fatal(err)
	}
	res, err := solver.Solve(setcover.DefaultOptions(g.N, rand.New(rand.NewSource(7))))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("planar-like network: n=%d m=%d D=%d\n", g.N, g.M(), diam)
	fmt.Printf("augmentation: %d edges, weight %d (tree weight %d)\n",
		len(res.Edges), res.Weight, t.Weight())
	fmt.Printf("realized shortcut quality alpha+beta = %d vs D+sqrt(n) = %.0f\n",
		res.MaxShortcutQuality, float64(diam)+math.Sqrt(float64(g.N)))
	fmt.Printf("outer loop: %d phases, %d sub-phases, %d samples, %d fallbacks\n",
		res.Phases, res.SubPhases, res.Samples, res.Fallbacks)
	fmt.Printf("CONGEST cost: %d rounds\n", net.Stats().TotalRounds())
}
