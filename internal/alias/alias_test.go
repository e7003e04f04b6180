package alias

import (
	"sync"
	"testing"
)

func digest(i int) Digest { return Of([]byte{byte(i), byte(i >> 8)}) }

func TestMapRotatesAndPromotes(t *testing.T) {
	m := New[int](2)
	m.Put(digest(1), 1)
	m.Put(digest(2), 2)
	m.Put(digest(3), 3) // rotates: {1,2} become the previous generation
	if v, ok := m.Get(digest(1)); !ok || v != 1 {
		t.Fatalf("entry lost at the first rotation: %d, %v", v, ok)
	}
	// Promoting 1 filled the current generation {3,1}; the next insert
	// rotates again and drops 2, which was never used since.
	m.Put(digest(4), 4)
	if _, ok := m.Get(digest(2)); ok {
		t.Fatal("an unused entry survived two rotations")
	}
	for _, i := range []int{1, 3, 4} {
		if v, ok := m.Get(digest(i)); !ok || v != i {
			t.Fatalf("entry %d: got %d, %v", i, v, ok)
		}
	}
	if n := len(m.cur) + len(m.prev); n > 2*m.gen {
		t.Fatalf("%d live entries exceed the bound %d", n, 2*m.gen)
	}
}

func TestMapBounded(t *testing.T) {
	m := New[int](8)
	for i := 0; i < 1000; i++ {
		m.Put(digest(i), i)
		if n := len(m.cur) + len(m.prev); n > 16 {
			t.Fatalf("after %d puts: %d live entries exceed 16", i+1, n)
		}
	}
	if v, ok := m.Get(digest(999)); !ok || v != 999 {
		t.Fatalf("latest entry missing: %d, %v", v, ok)
	}
}

func TestDisabledMap(t *testing.T) {
	m := New[int](0)
	if m != nil {
		t.Fatal("gen 0 should disable the map")
	}
	m.Put(digest(1), 1)
	if _, ok := m.Get(digest(1)); ok {
		t.Fatal("a disabled map returned a hit")
	}
}

// TestMapConcurrent drives Get and Put from several goroutines across many
// rotations; under -race it proves the map's own locking suffices.
func TestMapConcurrent(t *testing.T) {
	m := New[int](16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				d := digest(i % 64)
				if v, ok := m.Get(d); ok && v != i%64 {
					t.Errorf("digest %d holds %d", i%64, v)
					return
				}
				m.Put(d, i%64)
			}
		}(w)
	}
	wg.Wait()
}
