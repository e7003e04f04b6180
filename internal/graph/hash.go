package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
)

// Hash returns a canonical content digest of g: two graphs hash equal iff
// they have the same vertex count and the same multiset of weighted
// undirected edges, independent of edge insertion order and of the stored
// orientation of each edge. The service layer uses it as the
// content-addressed cache key (DESIGN.md §7), so the
// digest must be deterministic across processes: it is a SHA-256 over a
// fixed-width little-endian encoding of (N, M, sorted normalized edges).
//
// Note the digest identifies the edge *multiset*, not the edge numbering:
// two graphs with equal hash may assign different ids to the same edge.
// Consumers keying on Hash must therefore exchange results in a
// representation-independent form (endpoint triples, not edge ids).
func (g *Graph) Hash() [32]byte {
	type triple struct {
		u, v int32
		w    Weight
	}
	es := make([]triple, len(g.Edges))
	for i, e := range g.Edges {
		u, v := int32(e.U), int32(e.V)
		if u > v {
			u, v = v, u
		}
		es[i] = triple{u: u, v: v, w: e.W}
	}
	slices.SortFunc(es, func(a, b triple) int {
		if a.u != b.u {
			return int(a.u - b.u)
		}
		if a.v != b.v {
			return int(a.v - b.v)
		}
		switch {
		case a.w < b.w:
			return -1
		case a.w > b.w:
			return 1
		}
		return 0
	})
	h := sha256.New()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(g.N))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(es)))
	h.Write(buf[:])
	for _, t := range es {
		binary.LittleEndian.PutUint32(buf[:4], uint32(t.u))
		binary.LittleEndian.PutUint32(buf[4:8], uint32(t.v))
		binary.LittleEndian.PutUint64(buf[8:], uint64(t.w))
		h.Write(buf[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
