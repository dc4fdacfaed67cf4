package core

import (
	"sync"
	"sync/atomic"

	"lstore/internal/page"
	"lstore/internal/rid"
	"lstore/internal/types"
)

// tailBlock is a contiguous span of tail RIDs with columnar, write-once
// storage — a set of aligned tail pages (§2.2: "tail pages directly mirror
// the structure and the schema of base pages"). Meta-columns are always
// materialized; data columns are allocated lazily on first update of that
// column within the block ("a column that has never been updated does not
// even have to be materialized", §3.1). Table-level tail blocks of insert
// ranges (§3.2) materialize every column eagerly since inserts provide all
// values.
type tailBlock struct {
	rids *rid.Block

	// pending counts reserved-but-unpublished insert slots (incremented
	// BEFORE the RID take, decremented after the Start Time publish or the
	// neutralizing store). A reserved slot reads ∅ exactly like a
	// neutralized one, so sealing consults this counter to tell "insert in
	// flight" from "aborted forever": a seal must defer while pending > 0
	// or it would discard the in-flight record. sealing fences NEW
	// reservations for partial-block seals (ForceSeal): inserters announce
	// via pending, then check sealing, then take — so a sealer that set
	// sealing and observed pending == 0 knows no take can succeed anymore.
	// Only meaningful for table-level (insert-range) tail blocks.
	pending atomic.Int64
	sealing atomic.Bool

	// Meta tail pages (always present).
	indirection *page.TailPage // back pointer to previous version
	schemaEnc   *page.TailPage // changed-columns bitmap + flags
	startTime   *page.TailPage // commit time or transaction ID
	baseRID     *page.TailPage // owning base record (merge accelerator, §2.2)

	// Data tail pages, one per schema column, allocated lazily. NOT
	// annotated "guarded by allocMu": readers load pages lock-free through
	// the atomic pointer; allocMu only serializes the allocate-and-publish
	// step so two writers do not race to install the same column's page.
	data []atomic.Pointer[page.TailPage]

	allocMu sync.Mutex // serializes lazy data-page allocation only
}

func newTailBlock(first types.RID, n, numCols int, eager bool) *tailBlock {
	b := &tailBlock{
		rids:        rid.NewBlock(first, n),
		indirection: page.NewTail(n),
		schemaEnc:   page.NewTail(n),
		startTime:   page.NewTail(n),
		baseRID:     page.NewTail(n),
		data:        make([]atomic.Pointer[page.TailPage], numCols),
	}
	if eager {
		for i := range b.data {
			b.data[i].Store(page.NewTail(n))
		}
	}
	return b
}

// dataPage returns column col's tail page, allocating it on first use when
// create is true. Returns nil when the column was never materialized.
func (b *tailBlock) dataPage(col int, create bool) *page.TailPage {
	p := b.data[col].Load()
	if p != nil || !create {
		return p
	}
	b.allocMu.Lock()
	defer b.allocMu.Unlock()
	if p := b.data[col].Load(); p != nil {
		return p
	}
	p = page.NewTail(b.rids.N)
	b.data[col].Store(p)
	return p
}

// take reserves the next tail RID in the block.
func (b *tailBlock) take() (types.RID, int, bool) { return b.rids.Take() }

// tailRecord is a decoded view of one tail record (read path).
type tailRecord struct {
	rid       types.RID
	back      types.RID // previous version (tail RID) or base RID at chain end
	enc       uint64
	startSlot uint64 // raw Start Time slot (commit time, txn ID, or tombstone)
	block     *tailBlock
	slotIdx   int
}

// value returns this record's explicit value for col; ok is false when the
// record does not define the column.
func (r *tailRecord) value(col int) (uint64, bool) {
	if r.enc&types.SchemaDeleteFlag != 0 {
		// Delete tombstones implicitly set every data column to ∅.
		return types.NullSlot, true
	}
	if r.enc&(1<<uint(col)) == 0 {
		return 0, false
	}
	p := r.block.dataPage(col, false)
	if p == nil {
		return 0, false
	}
	return p.Load(r.slotIdx), true
}

// tailRecord reads the header of tail record rid from tails, the range's
// block list as walkChain captured it. A RID that list does not cover is a
// broken chain, not an absent version: the index or nil dereference panics.
func (r *updateRange) tailRecord(tails []*tailBlock, rid types.RID) tailRecord {
	bi, i := r.span.Locate(rid)
	b := tails[bi]
	return tailRecord{
		rid:       rid,
		back:      types.RID(b.indirection.Load(i)),
		enc:       b.schemaEnc.Load(i),
		startSlot: b.startTime.Load(i),
		block:     b,
		slotIdx:   i,
	}
}
