package core

import (
	"sync"

	"lstore/internal/page"
)

// mergeArena pools the merge/seal path's scratch vectors. One merge used to
// allocate per column — the Start Time slab, a consolidation buffer per
// touched column, the meta-column slabs, and the resolved-prefix staging
// slice — all of it garbage the moment the new page versions published.
// The arena keeps one reusable copy of each; page.EncodeScratch copies on
// the raw fallback (the only encoding that would alias its input), so every
// published page is safe against the arena's next reuse.
//
// The row layout's slab is intentionally NOT pooled: it is published inside
// the rowView page readers and stays live for the version's lifetime.
//
// BenchmarkMergeAllocs guards the steady-state allocation count of this path.
type mergeArena struct {
	starts []uint64 // seal: resolved Start Time slab
	vals   []uint64 // seal: per-column consolidation buffer (reused per column)
	meta1  []uint64 // Last Updated scratch (seal: the all-∅ slab)
	meta2  []uint64 // Schema Encoding scratch (seal: the all-zero slab)

	prefix []mergedTail // collectPrefixLocked staging

	// work[c] is column c's decode+consolidate buffer for full merges;
	// workUsed marks which columns this merge actually touched (the old map
	// keyed the same information).
	work     [][]uint64
	workUsed []bool
}

var mergeArenaPool = sync.Pool{New: func() any { return new(mergeArena) }}

func getMergeArena() *mergeArena { return mergeArenaPool.Get().(*mergeArena) }

// putMergeArena returns a to the pool, dropping tail-block references so
// pooled arenas do not pin retired blocks.
func putMergeArena(a *mergeArena) {
	for i := range a.prefix {
		a.prefix[i] = mergedTail{}
	}
	a.prefix = a.prefix[:0]
	for i := range a.workUsed {
		a.workUsed[i] = false
	}
	mergeArenaPool.Put(a)
}

// u64 resizes *buf to n slots (contents unspecified) and returns it.
func (a *mergeArena) u64(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// colScratch sizes the per-column work table.
func (a *mergeArena) colScratch(ncols int) {
	if cap(a.work) < ncols {
		a.work = make([][]uint64, ncols)
		a.workUsed = make([]bool, ncols)
	}
	a.work = a.work[:ncols]
	a.workUsed = a.workUsed[:ncols]
	for i := range a.workUsed {
		a.workUsed[i] = false
	}
}

// encodePage publishes a base page from arena-backed scratch: codec selection
// per the column's value distribution (§4.1 step 3). The result never
// aliases vals.
func (s *Store) encodePage(vals []uint64) page.Reader {
	return page.EncodeScratch(vals)
}
