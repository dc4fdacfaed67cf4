package rid

import (
	"sync"
	"testing"

	"lstore/internal/types"
)

func TestBaseAllocatorSpans(t *testing.T) {
	a := NewBaseAllocator()
	s1, err := a.ReserveSpan(100)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.ReserveSpan(50)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != 1 {
		t.Errorf("first span starts at %v, want 1", s1)
	}
	if s2 != s1+100 {
		t.Errorf("second span starts at %v, want %v", s2, s1+100)
	}
	if !s1.IsBase() || !s2.IsBase() {
		t.Errorf("base spans must be base RIDs")
	}
	if _, err := a.ReserveSpan(0); err == nil {
		t.Errorf("zero span accepted")
	}
	if _, err := a.ReserveSpan(-3); err == nil {
		t.Errorf("negative span accepted")
	}
}

// TestTailSpanBlocks checks one range's span: update blocks ascend after
// the insert block, the last block of the highest range at the smallest
// legal RangeSize (1) still fits the Indirection word's RID bits, and the
// block past the span is refused.
func TestTailSpanBlocks(t *testing.T) {
	sp := NewTailSpan(3, 64, 16)
	prev := sp.InsertFirst() + 63
	for bi := 0; bi < 1000; bi++ {
		first, err := sp.BlockFirst(bi)
		if err != nil {
			t.Fatal(err)
		}
		if first != prev+1 {
			t.Fatalf("block %d starts at %v, want %v", bi, first, prev+1)
		}
		for slot := 0; slot < 16; slot++ {
			if gb, gs := sp.Locate(first + types.RID(slot)); gb != bi || gs != slot {
				t.Fatalf("Locate(%v) = (%d, %d), want (%d, %d)", first+types.RID(slot), gb, gs, bi, slot)
			}
		}
		prev = first + 15
	}

	const rangeSize, blockSize = 1, 1
	maxIdx := int(types.TailRIDBase/rangeSize) - 1
	top := NewTailSpan(maxIdx, rangeSize, blockSize)
	last, err := top.BlockFirst(top.blocks - 1)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(last)+blockSize-1 >= types.IndirectionRIDMask {
		t.Fatalf("range %d ends at %v, past the Indirection RID mask", maxIdx, last)
	}
	if want := top.InsertFirst() + rangeSize<<spanShift - 1; last != want {
		t.Fatalf("last block of range %d starts at %v, want the span's last RID %v", maxIdx, last, want)
	}
	if _, err := top.BlockFirst(top.blocks); err == nil {
		t.Fatal("the block past the span was handed out")
	}
	if _, err := sp.BlockFirst(-1); err == nil {
		t.Fatal("a negative block index was handed out")
	}
}

// TestTailSpansDisjoint checks that neighbouring ranges' spans never
// overlap: each span ends exactly where the next begins.
func TestTailSpansDisjoint(t *testing.T) {
	for _, shape := range []struct{ rangeSize, blockSize int }{{1, 1}, {64, 16}, {4096, 512}} {
		for idx := 0; idx < 8; idx++ {
			sp := NewTailSpan(idx, shape.rangeSize, shape.blockSize)
			next := NewTailSpan(idx+1, shape.rangeSize, shape.blockSize)
			if !sp.InsertFirst().IsTail() {
				t.Fatalf("range %d's span starts at base RID %v", idx, sp.InsertFirst())
			}
			last, err := sp.BlockFirst(sp.blocks - 1)
			if err != nil {
				t.Fatal(err)
			}
			if end := last + types.RID(shape.blockSize); end != next.InsertFirst() {
				t.Fatalf("shape %+v: range %d ends at %v, range %d starts at %v",
					shape, idx, end, idx+1, next.InsertFirst())
			}
		}
	}
}

func TestBlockTake(t *testing.T) {
	b := NewBlock(types.TailRIDBase+100, 4)
	for i := 0; i < 4; i++ {
		r, slot, ok := b.Take()
		if !ok {
			t.Fatalf("Take %d failed", i)
		}
		if slot != i {
			t.Errorf("slot = %d, want %d", slot, i)
		}
		if r != b.First+types.RID(i) {
			t.Errorf("rid = %v", r)
		}
	}
	if _, _, ok := b.Take(); ok {
		t.Errorf("Take succeeded past capacity")
	}
	if b.Used() != 4 {
		t.Errorf("Used = %d, want 4", b.Used())
	}
}

func TestBlockConcurrentTakeUnique(t *testing.T) {
	b := NewBlock(types.TailRIDBase, 1024)
	var wg sync.WaitGroup
	got := make([][]types.RID, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				r, _, ok := b.Take()
				if !ok {
					return
				}
				got[w] = append(got[w], r)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[types.RID]struct{})
	total := 0
	for _, rs := range got {
		for _, r := range rs {
			if _, dup := seen[r]; dup {
				t.Fatalf("duplicate %v", r)
			}
			seen[r] = struct{}{}
			total++
		}
	}
	if total != 1024 {
		t.Fatalf("total takes = %d, want 1024", total)
	}
}
