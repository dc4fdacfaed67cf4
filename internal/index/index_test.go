package index

import (
	"slices"
	"sync"
	"testing"

	"lstore/internal/types"
)

func TestPrimaryBasic(t *testing.T) {
	p := NewPrimary()
	if _, ok := p.Get(5); ok {
		t.Fatal("empty index returned a hit")
	}
	if rid, installed := p.PutIfAbsent(5, 100); !installed || rid != 100 {
		t.Fatalf("PutIfAbsent = (%v,%v)", rid, installed)
	}
	if rid, installed := p.PutIfAbsent(5, 200); installed || rid != 100 {
		t.Fatalf("duplicate PutIfAbsent = (%v,%v)", rid, installed)
	}
	if rid, ok := p.Get(5); !ok || rid != 100 {
		t.Fatalf("Get = (%v,%v)", rid, ok)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestPrimaryReplace(t *testing.T) {
	p := NewPrimary()
	p.PutIfAbsent(1, 10)
	if p.Replace(1, 99, 20) {
		t.Fatal("Replace with wrong old succeeded")
	}
	if !p.Replace(1, 10, 20) {
		t.Fatal("Replace failed")
	}
	if rid, _ := p.Get(1); rid != 20 {
		t.Fatalf("after replace rid = %v", rid)
	}
	if p.Replace(42, 0, 1) {
		t.Fatal("Replace on absent key succeeded")
	}
}

func TestPrimaryDeleteAndRange(t *testing.T) {
	p := NewPrimary()
	for k := uint64(0); k < 100; k++ {
		p.PutIfAbsent(k, types.RID(k+1))
	}
	p.Delete(50)
	if _, ok := p.Get(50); ok {
		t.Fatal("deleted key still present")
	}
	seen := 0
	p.Range(func(k uint64, r types.RID) bool {
		if r != types.RID(k+1) {
			t.Errorf("key %d has rid %v", k, r)
		}
		seen++
		return true
	})
	if seen != 99 {
		t.Fatalf("Range visited %d, want 99", seen)
	}
	// Early termination.
	n := 0
	p.Range(func(uint64, types.RID) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("Range did not stop early: %d", n)
	}
}

func TestPrimaryConcurrentUniqueness(t *testing.T) {
	p := NewPrimary()
	const keys = 500
	var wg sync.WaitGroup
	wins := make([][]uint64, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := uint64(0); k < keys; k++ {
				if _, installed := p.PutIfAbsent(k, types.RID(uint64(w)*keys+k+1)); installed {
					wins[w] = append(wins[w], k)
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, ws := range wins {
		total += len(ws)
	}
	if total != keys {
		t.Fatalf("%d installs for %d keys: uniqueness violated", total, keys)
	}
	if p.Len() != keys {
		t.Fatalf("Len = %d, want %d", p.Len(), keys)
	}
}

// TestSecondaryBasic: Add appends without looking for the pair, so a
// repeated pair is stored and counted twice; probes collapse repeats.
func TestSecondaryBasic(t *testing.T) {
	s := NewSecondary()
	s.Add(7, 1)
	s.Add(7, 2)
	s.Add(7, 1) // repeated pair appended, not refused
	s.Add(9, 3)
	if got := s.Lookup(7); !slices.Equal(got, []types.RID{1, 2, 1}) {
		t.Fatalf("Lookup(7) = %v", got)
	}
	if got := s.Lookup(404); len(got) != 0 {
		t.Fatalf("Lookup(404) = %v", got)
	}
	if s.Entries() != 4 {
		t.Fatalf("Entries = %d", s.Entries())
	}
}

func TestSecondaryDeferredRemove(t *testing.T) {
	s := NewSecondary()
	// Record b2's column C changes c2 → c21: new entry added, old kept.
	s.Add(2, 2) // (c2, b2)
	s.Add(21, 2)
	if len(s.Lookup(2)) != 1 || len(s.Lookup(21)) != 1 {
		t.Fatal("both old and new entries must be present before cleanup")
	}
	// Deferred cleanup once outside all snapshots.
	s.Remove(2, 2)
	if len(s.Lookup(2)) != 0 {
		t.Fatal("old entry survived cleanup")
	}
	if len(s.Lookup(21)) != 1 {
		t.Fatal("new entry removed by cleanup")
	}
	s.Remove(2, 2) // idempotent
}

func TestSecondaryLookupIsCopy(t *testing.T) {
	s := NewSecondary()
	s.Add(1, 10)
	got := s.Lookup(1)
	got[0] = 999
	if s.Lookup(1)[0] != 10 {
		t.Fatal("Lookup returned aliased storage")
	}
}

func TestSecondaryConcurrent(t *testing.T) {
	s := NewSecondary()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Add(uint64(i%10), types.RID(uint64(w)*1000+uint64(i)+1))
				s.Lookup(uint64(i % 10))
			}
		}(w)
	}
	wg.Wait()
	if s.Entries() != 8*200 {
		t.Fatalf("Entries = %d, want %d", s.Entries(), 8*200)
	}
}

func TestSecondaryLookupAppendReusesBuffer(t *testing.T) {
	s := NewSecondary()
	s.Add(1, 10)
	s.Add(1, 11)
	s.Add(2, 20)

	buf := make([]types.RID, 0, 8)
	got := s.LookupAppend(buf, 1)
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("LookupAppend(1) = %v", got)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("LookupAppend did not reuse the caller's buffer")
	}
	// Recycled probe loop: truncate and reuse, no per-probe allocation.
	got = s.LookupAppend(got[:0], 2)
	if len(got) != 1 || got[0] != 20 {
		t.Fatalf("LookupAppend(2) = %v", got)
	}
	if got = s.LookupAppend(got[:0], 99); len(got) != 0 {
		t.Fatalf("LookupAppend(miss) = %v", got)
	}
	// Appending onto existing content preserves the prefix.
	got = s.LookupAppend([]types.RID{7}, 1)
	if len(got) != 3 || got[0] != 7 {
		t.Fatalf("LookupAppend with prefix = %v", got)
	}
}
