package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"

	"twoecss/internal/ecss"
)

// Key is the content address of a solve: SHA-256 over the canonical graph
// digest (graph.Hash) concatenated with the result-relevant Options fields.
// Execution knobs (Progress, StageStats) are excluded: they observe a
// solve and cannot change its result.
type Key [32]byte

func keyFor(graphHash [32]byte, opt ecss.Options) Key {
	var buf [64]byte
	copy(buf[:32], graphHash[:])
	blob := optionsBlob(opt)
	copy(buf[32:], blob[:])
	return sha256.Sum256(buf[:])
}

// optionsBlob is the fixed-width encoding of the result-relevant options:
// the second half of the key preimage, and the Options field persisted in
// every store entry header so on-disk files are self-describing.
func optionsBlob(opt ecss.Options) (b [32]byte) {
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(opt.Eps))
	binary.LittleEndian.PutUint64(b[8:], uint64(opt.Variant))
	binary.LittleEndian.PutUint64(b[16:], uint64(opt.MST))
	binary.LittleEndian.PutUint64(b[24:], uint64(opt.Root))
	return b
}

// jobCache is an LRU of completed jobs addressed by Key. It is not
// self-locking: the Service serializes access under its own mutex, which
// also keeps cache insertion atomic with in-flight table removal.
type jobCache struct {
	capN int
	m    map[Key]*list.Element
	ll   *list.List // front = most recently used
}

type cacheEntry struct {
	key Key
	job *Job
}

func newJobCache(capN int) *jobCache {
	return &jobCache{capN: capN, m: make(map[Key]*list.Element), ll: list.New()}
}

func (c *jobCache) get(key Key) (*Job, bool) {
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).job, true
}

// put inserts a completed job and returns the evicted job, if any, so the
// caller can drop its id from the job table.
func (c *jobCache) put(key Key, j *Job) *Job {
	if c.capN <= 0 {
		return j
	}
	if el, ok := c.m[key]; ok {
		// One in-flight job per key makes this unreachable in the service,
		// but keep the cache self-consistent for direct use.
		old := el.Value.(*cacheEntry).job
		el.Value.(*cacheEntry).job = j
		c.ll.MoveToFront(el)
		if old != j {
			return old
		}
		return nil
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, job: j})
	if c.ll.Len() <= c.capN {
		return nil
	}
	back := c.ll.Back()
	c.ll.Remove(back)
	ev := back.Value.(*cacheEntry)
	delete(c.m, ev.key)
	return ev.job
}

func (c *jobCache) len() int { return c.ll.Len() }
