// Quickstart: build a small weighted network, run the deterministic
// (5+eps)-approximation for minimum-weight 2-ECSS (Theorem 1.1), and print
// the solution with its certificate.
package main

import (
	"fmt"
	"log"

	"twoecss/internal/ecss"
	"twoecss/internal/graph"
)

func main() {
	// A ring of 24 datacenters with 8 random cross links: every edge has a
	// leasing cost; we want the cheapest subset that survives any single
	// link failure.
	g := graph.RingWithChords(24, 8, graph.DefaultGenConfig(42))

	res, net, err := ecss.Solve(g, ecss.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if err := ecss.Verify(g, res); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("network: %d nodes, %d candidate links\n", g.N, g.M())
	fmt.Printf("bought %d links for total cost %d\n", len(res.Edges), res.Weight)
	fmt.Printf("  spanning tree cost:  %d\n", res.TreeWeight)
	fmt.Printf("  augmentation cost:   %d\n", res.AugWeight)
	fmt.Printf("certified within %.2fx of optimal (proven bound 5.25x)\n", res.CertifiedRatio)
	fmt.Printf("CONGEST cost: %d rounds, %d messages\n",
		net.Stats().TotalRounds(), net.Stats().Messages)
}
