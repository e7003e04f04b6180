package service

import (
	"slices"
	"sync"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
)

// NetworkPool keeps idle congest.Networks keyed by the canonical hash of
// their graph, so repeated solves of the same topology reuse a warm engine
// — scratch buffers sized to the instance — instead of rebuilding it per
// job. Get hands out exclusive ownership of a network; Put returns it. Idle
// capacity is bounded: Put beyond capacity evicts the least-recently
// returned network, which the garbage collector then reclaims. All methods
// are safe for concurrent use.
type NetworkPool struct {
	mu    sync.Mutex
	capN  int
	idle  []poolEntry // LRU order: index 0 is the eviction candidate
	stats NetworkPoolStats
}

type poolEntry struct {
	key [32]byte
	net *congest.Network
}

// NetworkPoolStats counts pool traffic for the service stats endpoint.
type NetworkPoolStats struct {
	Creates   int64 `json:"creates"`
	Reuses    int64 `json:"reuses"`
	Evictions int64 `json:"evictions"`
	Idle      int   `json:"idle"`
}

// NewNetworkPool returns a pool holding at most capN idle networks
// (capN <= 0 disables pooling: every Put drops the network).
func NewNetworkPool(capN int) *NetworkPool {
	return &NetworkPool{capN: capN}
}

// Get returns a network for a graph whose Hash() is key, reusing an idle
// structurally identical one when available and building a fresh network
// over g otherwise. The caller has exclusive use of the returned network
// until it calls Put. Note a reused network serves g's twin, not g itself:
// consumers must treat results in a representation-independent way (the
// service's canonical wire encoding does).
func (p *NetworkPool) Get(key [32]byte, g *graph.Graph) *congest.Network {
	p.mu.Lock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].key == key {
			net := p.idle[i].net
			p.idle = slices.Delete(p.idle, i, i+1)
			p.stats.Reuses++
			p.mu.Unlock()
			return net
		}
	}
	p.stats.Creates++
	p.mu.Unlock()
	return congest.NewNetwork(g)
}

// Put returns a network obtained from Get. If the pool is full it evicts
// the oldest idle network to make room.
func (p *NetworkPool) Put(key [32]byte, net *congest.Network) {
	if p.capN <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) >= p.capN {
		p.idle = slices.Delete(p.idle, 0, 1)
		p.stats.Evictions++
	}
	p.idle = append(p.idle, poolEntry{key: key, net: net})
}

// dropIdle forgets every idle network, leaving them to the garbage
// collector. Drain calls it once the workers have exited.
func (p *NetworkPool) dropIdle() {
	p.mu.Lock()
	p.idle = nil
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool counters.
func (p *NetworkPool) Stats() NetworkPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Idle = len(p.idle)
	return st
}
