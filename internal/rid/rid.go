// Package rid implements the record-identifier allocators of L-Store.
//
// Base RIDs and tail RIDs come from the same key space (§2.1: "records in
// both base and tail pages are assigned record-identifiers from the same key
// space") but from disjoint sub-ranges: base RIDs ascend from 1 and tail
// RIDs live at and above types.TailRIDBase.
//
// Each update range owns a fixed span of tail RIDs (TailSpan): its insert
// block (§3.2) takes the first RangeSize RIDs, and its update blocks follow
// in order, so the tail records of a range stay clustered inside that
// range's tail pages (§3.1). RIDs are monotone in allocation order within a
// range — all the TPS high-watermark logic needs, since TPS is per range
// (§4.2) — and a tail RID maps to its block by arithmetic alone.
package rid

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"lstore/internal/types"
)

// BaseAllocator hands out base RIDs in contiguous spans (insert ranges).
type BaseAllocator struct {
	next atomic.Uint64
}

// NewBaseAllocator returns an allocator whose first RID is 1.
func NewBaseAllocator() *BaseAllocator {
	a := &BaseAllocator{}
	a.next.Store(1)
	return a
}

// ReserveSpan reserves n consecutive base RIDs and returns the first.
func (a *BaseAllocator) ReserveSpan(n int) (types.RID, error) {
	if n <= 0 {
		return types.InvalidRID, fmt.Errorf("rid: span size %d must be positive", n)
	}
	first := a.next.Add(uint64(n)) - uint64(n)
	if first+uint64(n) >= uint64(types.TailRIDBase) {
		return types.InvalidRID, fmt.Errorf("rid: base RID space exhausted")
	}
	return types.RID(first), nil
}

// Peek returns the next RID that would be allocated (for introspection).
func (a *BaseAllocator) Peek() types.RID { return types.RID(a.next.Load()) }

// spanShift sizes every range's tail span at RangeSize<<spanShift RIDs. Base
// RIDs stop below 2^40, so at most 2^40/RangeSize ranges exist and their
// spans end below TailRIDBase + 2^62, inside the Indirection word's RID bits.
const spanShift = 22

// TailSpan is the tail-RID span of one update range: the insert block at
// its start, then update blocks of a power-of-two size. The update blocks
// hold about 2^22 tail records per base slot of the range; BlockFirst
// refuses the block past them. The zero TailSpan is not usable; call
// NewTailSpan.
type TailSpan struct {
	insert types.RID // first RID of the insert block
	first  types.RID // first RID of update block 0
	shift  uint      // log2 of the update-block size
	blocks int       // update blocks the span holds
}

// NewTailSpan returns the span of range idx. rangeSize and blockSize must be
// powers of two with blockSize <= rangeSize.
func NewTailSpan(idx, rangeSize, blockSize int) TailSpan {
	size := uint64(rangeSize) << spanShift
	insert := types.TailRIDBase + types.RID(uint64(idx)*size)
	shift := uint(bits.TrailingZeros64(uint64(blockSize)))
	return TailSpan{
		insert: insert,
		first:  insert + types.RID(rangeSize),
		shift:  shift,
		blocks: int((size - uint64(rangeSize)) >> shift),
	}
}

// InsertFirst returns the first RID of the range's insert block.
func (sp TailSpan) InsertFirst() types.RID { return sp.insert }

// BlockFirst returns the first RID of update block bi, or an error once bi is
// past the span.
func (sp TailSpan) BlockFirst(bi int) (types.RID, error) {
	if bi < 0 || bi >= sp.blocks {
		return types.InvalidRID, fmt.Errorf("rid: update block %d is past the range's tail span of %d blocks", bi, sp.blocks)
	}
	return sp.first + types.RID(uint64(bi)<<sp.shift), nil
}

// Locate returns the update block and the slot inside it that hold r, which
// must be an update-block RID of this span.
func (sp TailSpan) Locate(r types.RID) (bi, slot int) {
	off := uint64(r - sp.first)
	return int(off >> sp.shift), int(off & (1<<sp.shift - 1))
}

// Block is a contiguous span of RIDs with O(1) slot addressing.
type Block struct {
	First types.RID
	N     int
	used  atomic.Int64
}

// NewBlock wraps a reserved span.
func NewBlock(first types.RID, n int) *Block { return &Block{First: first, N: n} }

// Take hands out the next RID in the block. ok is false once the block is
// exhausted; the caller then reserves a fresh block. Take never blocks and
// is safe for concurrent use.
func (b *Block) Take() (r types.RID, slot int, ok bool) {
	i := b.used.Add(1) - 1
	if i >= int64(b.N) {
		return types.InvalidRID, 0, false
	}
	return b.First + types.RID(i), int(i), true
}

// Used returns how many RIDs have been taken (may transiently exceed N under
// races; callers treat >=N as full).
func (b *Block) Used() int {
	u := b.used.Load()
	if u > int64(b.N) {
		u = int64(b.N)
	}
	return int(u)
}
