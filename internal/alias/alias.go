// Package alias is the bounded body-digest map behind the request-body
// alias of ecssd and ecssrouter (DESIGN.md §7.6): the SHA-256 of a solve
// body the daemon already decoded maps to what that decode produced, so a
// byte-identical resubmission skips decode, graph build and hash.
package alias

import (
	"crypto/sha256"
	"sync"
)

// Digest is the alias key: the SHA-256 of a whole request body.
type Digest = [32]byte

// Of returns the digest of body.
func Of(body []byte) Digest { return sha256.Sum256(body) }

// Map is a two-generation map of body digests, safe for concurrent use.
// New entries go into the current generation; when it holds gen entries
// it becomes the previous one and a fresh map starts, so at most 2·gen
// entries live at once. A hit in the previous generation is promoted, so
// entries in steady use survive every rotation. A nil *Map is a disabled
// alias: Get always misses and Put is a no-op.
type Map[V any] struct {
	gen int

	mu        sync.Mutex
	cur, prev map[Digest]V
}

// New returns a map holding up to gen entries per generation, or nil (a
// disabled map) when gen <= 0.
func New[V any](gen int) *Map[V] {
	if gen <= 0 {
		return nil
	}
	return &Map[V]{gen: gen, cur: make(map[Digest]V)}
}

// Get returns the value learned for d.
func (m *Map[V]) Get(d Digest) (V, bool) {
	var zero V
	if m == nil {
		return zero, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.cur[d]; ok {
		return v, true
	}
	v, ok := m.prev[d]
	if ok {
		m.putLocked(d, v)
	}
	return v, ok
}

// Put records v for d.
func (m *Map[V]) Put(d Digest, v V) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.putLocked(d, v)
	m.mu.Unlock()
}

func (m *Map[V]) putLocked(d Digest, v V) {
	if _, ok := m.cur[d]; !ok && len(m.cur) >= m.gen {
		m.prev, m.cur = m.cur, make(map[Digest]V)
	}
	m.cur[d] = v
}
