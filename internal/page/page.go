// Package page implements L-Store's two physical page families (§2.1):
//
//   - Base pages: read-only, compressed, columnar. They are produced whole
//     (by the merge process or by sealing an insert range), never mutated,
//     and dropped by Go's GC once no reader holds them. Several
//     encodings are provided (raw, frame-of-reference bit-packed,
//     dictionary, run-length); Encode picks the smallest.
//
//   - Tail pages: append-only, uncompressed, write-once. Slots are
//     pre-allocated (the paper pre-assigns the special null ∅) and each slot
//     is written at most once, via atomic stores so readers never observe
//     torn words. Tail pages are the only growing structure in the store.
//
// One page holds DefaultSlots 8-byte slots, matching the paper's 32 KB page
// size for both base and tail pages (§6.1).
package page

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"lstore/internal/compress"
	"lstore/internal/types"
)

// DefaultSlots is the number of 8-byte slots per page (32 KB pages).
const DefaultSlots = 4096

// Kind identifies a base-page encoding.
type Kind uint8

const (
	KindRaw Kind = iota
	KindPacked
	KindDict
	KindRLE
)

func (k Kind) String() string {
	switch k {
	case KindRaw:
		return "raw"
	case KindPacked:
		return "packed"
	case KindDict:
		return "dict"
	case KindRLE:
		return "rle"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Reader is the read interface shared by all base-page encodings.
type Reader interface {
	// Get returns the slot value at index i.
	Get(i int) uint64
	// Len returns the number of slots.
	Len() int
	// Kind returns the encoding.
	Kind() Kind
	// MemWords returns the approximate in-memory footprint in 8-byte words
	// (used by Encode to pick the cheapest representation and by the
	// benchmarks to report compression ratios).
	MemWords() int
}

// ---------------------------------------------------------------------------
// Raw

// RawPage stores slots verbatim.
type RawPage struct{ slots []uint64 }

// NewRaw wraps vals (not copied) as a raw page.
func NewRaw(vals []uint64) *RawPage { return &RawPage{slots: vals} }

func (p *RawPage) Get(i int) uint64 { return p.slots[i] }
func (p *RawPage) Len() int         { return len(p.slots) }
func (p *RawPage) Kind() Kind       { return KindRaw }
func (p *RawPage) MemWords() int    { return len(p.slots) }

// ---------------------------------------------------------------------------
// Frame-of-reference bit-packed

// PackedPage stores (value - min) in fixed-width bit fields. Nulls are
// tracked in a side bitmap because types.NullSlot would destroy the frame.
type PackedPage struct {
	min   uint64
	width int
	n     int
	words []uint64
	nulls []uint64 // 1 bit per slot; nil when no nulls
}

// NewPacked builds a frame-of-reference packed page, or returns nil when the
// input cannot be packed profitably (width 64).
func NewPacked(vals []uint64) *PackedPage {
	min := ^uint64(0)
	max := uint64(0)
	hasNull := false
	nonNull := 0
	for _, v := range vals {
		if v == types.NullSlot {
			hasNull = true
			continue
		}
		nonNull++
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if nonNull == 0 {
		min = 0
		max = 0
	}
	width := compress.BitWidth(max - min)
	if width >= 64 {
		return nil
	}
	shifted := make([]uint64, len(vals))
	var nulls []uint64
	if hasNull {
		nulls = make([]uint64, (len(vals)+63)/64)
	}
	for i, v := range vals {
		if v == types.NullSlot {
			nulls[i/64] |= 1 << uint(i%64)
			continue
		}
		shifted[i] = v - min
	}
	return &PackedPage{
		min:   min,
		width: width,
		n:     len(vals),
		words: compress.PackBits(shifted, width),
		nulls: nulls,
	}
}

func (p *PackedPage) Get(i int) uint64 {
	if p.nulls != nil && p.nulls[i/64]&(1<<uint(i%64)) != 0 {
		return types.NullSlot
	}
	return p.min + compress.UnpackBit(p.words, p.width, i)
}
func (p *PackedPage) Len() int      { return p.n }
func (p *PackedPage) Kind() Kind    { return KindPacked }
func (p *PackedPage) MemWords() int { return 2 + len(p.words) + len(p.nulls) }

// ---------------------------------------------------------------------------
// Dictionary

// DictPage dictionary-encodes low-cardinality columns; codes are bit-packed.
type DictPage struct {
	dict  *compress.Dict
	width int
	n     int
	words []uint64
}

// NewDict builds a dictionary page; returns nil when the dictionary would be
// as large as the data (no benefit).
func NewDict(vals []uint64) *DictPage {
	d, codes := compress.BuildDict(vals)
	if d.Size() >= len(vals) || d.Size() == 0 {
		return nil
	}
	width := compress.BitWidth(uint64(d.Size() - 1))
	if width == 0 {
		width = 1
	}
	c64 := make([]uint64, len(codes))
	for i, c := range codes {
		c64[i] = uint64(c)
	}
	return &DictPage{dict: d, width: width, n: len(vals), words: compress.PackBits(c64, width)}
}

func (p *DictPage) Get(i int) uint64 {
	return p.dict.Value(uint32(compress.UnpackBit(p.words, p.width, i)))
}
func (p *DictPage) Len() int      { return p.n }
func (p *DictPage) Kind() Kind    { return KindDict }
func (p *DictPage) MemWords() int { return 1 + p.dict.Size() + len(p.words) }

// ---------------------------------------------------------------------------
// Run-length

// RLEPage stores runs plus a sparse index of run start offsets for O(log R)
// point access.
type RLEPage struct {
	runs   []compress.Run
	starts []uint32
	n      int
}

// NewRLE builds an RLE page; returns nil when runs don't compress.
func NewRLE(vals []uint64) *RLEPage {
	runs := compress.RLEncode(vals)
	if len(runs)*2 >= len(vals) {
		return nil
	}
	starts := make([]uint32, len(runs))
	off := uint32(0)
	for i, r := range runs {
		starts[i] = off
		off += r.Count
	}
	return &RLEPage{runs: runs, starts: starts, n: len(vals)}
}

func (p *RLEPage) Get(i int) uint64 {
	lo, hi := 0, len(p.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.starts[mid] <= uint32(i) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return p.runs[lo].Value
}
func (p *RLEPage) Len() int      { return p.n }
func (p *RLEPage) Kind() Kind    { return KindRLE }
func (p *RLEPage) MemWords() int { return 2 * len(p.runs) }

// ---------------------------------------------------------------------------
// Bulk decoding

// BulkDecoder is the optional fast path for scans: append all decoded slots
// to buf in one sequential pass.
type BulkDecoder interface {
	AppendTo(buf []uint64) []uint64
}

// AppendTo copies the raw slots.
func (p *RawPage) AppendTo(buf []uint64) []uint64 { return append(buf, p.slots...) }

// AppendTo expands runs without per-slot binary search.
func (p *RLEPage) AppendTo(buf []uint64) []uint64 {
	for _, r := range p.runs {
		for i := uint32(0); i < r.Count; i++ {
			buf = append(buf, r.Value)
		}
	}
	return buf
}

// AppendTo unpacks sequentially (monotone bit cursor, no re-derived
// positions).
func (p *PackedPage) AppendTo(buf []uint64) []uint64 {
	for i := 0; i < p.n; i++ {
		buf = append(buf, p.Get(i))
	}
	return buf
}

// AppendTo decodes codes sequentially.
func (p *DictPage) AppendTo(buf []uint64) []uint64 {
	for i := 0; i < p.n; i++ {
		buf = append(buf, p.Get(i))
	}
	return buf
}

// ---------------------------------------------------------------------------
// Encoder

// Encode picks the smallest representation for vals from the value
// distribution: one compress.Analyze pass prices every encoding (raw,
// RLE, dictionary, frame-of-reference packed) and only the winner is built.
// The raw fallback aliases vals — callers must not mutate vals after Encode
// (EncodeScratch copies instead, for arena-backed callers).
func Encode(vals []uint64) Reader { return encode(vals, false) }

// EncodeScratch is Encode for callers that reuse vals afterwards (the merge
// arena): the raw fallback copies the input instead of aliasing it. The
// other encodings never retain vals.
func EncodeScratch(vals []uint64) Reader { return encode(vals, true) }

func encode(vals []uint64, copyRaw bool) Reader {
	st := compress.Analyze(vals, types.NullSlot)
	n := st.N

	// Price each candidate in MemWords, mirroring the constructors exactly.
	bestW := n // raw
	best := KindRaw
	if w := 2 * st.Runs; 2*st.Runs < n && w < bestW {
		best, bestW = KindRLE, w
	}
	if !st.DistinctOverflow && st.Distinct > 0 && st.Distinct < n {
		dw := compress.BitWidth(uint64(st.Distinct - 1))
		if dw == 0 {
			dw = 1
		}
		if w := 1 + st.Distinct + (n*dw+63)/64; w < bestW {
			best, bestW = KindDict, w
		}
	}
	if pw := compress.BitWidth(st.Max - st.Min); pw < 64 {
		w := 2 + (n*pw+63)/64
		if st.NonNull < n {
			w += (n + 63) / 64 // side null bitmap
		}
		if w < bestW {
			best = KindPacked
		}
	}

	switch best {
	case KindRLE:
		if p := NewRLE(vals); p != nil {
			return p
		}
	case KindDict:
		if p := NewDict(vals); p != nil {
			return p
		}
	case KindPacked:
		if p := NewPacked(vals); p != nil {
			return p
		}
	}
	if copyRaw {
		return NewRaw(append(make([]uint64, 0, n), vals...))
	}
	return NewRaw(vals)
}

// NewConst builds the page holding n copies of v — one RLE run. Restore uses
// it for the merge-maintained meta pages of a freshly installed cold range
// (Last Updated all-∅, Schema Encoding all-zero).
func NewConst(v uint64, n int) Reader {
	if n == 0 {
		return NewRaw(nil)
	}
	runs := make([]compress.Run, 0, (n+runCountMax-1)/runCountMax)
	for rem := n; rem > 0; rem -= runCountMax {
		c := rem
		if c > runCountMax {
			c = runCountMax
		}
		runs = append(runs, compress.Run{Value: v, Count: uint32(c)})
	}
	starts := make([]uint32, len(runs))
	for i := range runs {
		starts[i] = uint32(i * runCountMax)
	}
	return &RLEPage{runs: runs, starts: starts, n: n}
}

// runCountMax is the largest per-run count (compress.Run counts are uint32).
const runCountMax = int(^uint32(0))

// Decode expands any Reader back into a slot vector.
func Decode(p Reader) []uint64 {
	out := make([]uint64, p.Len())
	for i := range out {
		out[i] = p.Get(i)
	}
	return out
}

// ---------------------------------------------------------------------------
// Serialization (used by the WAL snapshotter and cmd/lstore-inspect)

// Marshal serializes any base page. Pages are serialized decoded; the
// compression choice is a runtime decision and Unmarshal re-encodes.
func Marshal(p Reader) []byte {
	buf := make([]byte, 0, 8+8*p.Len())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Len()))
	for i := 0; i < p.Len(); i++ {
		buf = binary.LittleEndian.AppendUint64(buf, p.Get(i))
	}
	return buf
}

// Unmarshal parses a Marshal-ed page and re-encodes it optimally.
func Unmarshal(b []byte) (Reader, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("page: truncated header")
	}
	n := binary.LittleEndian.Uint64(b)
	if uint64(len(b)) < 8+8*n {
		return nil, fmt.Errorf("page: truncated body: want %d slots", n)
	}
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint64(b[8+8*i:])
	}
	return Encode(vals), nil
}

// ---------------------------------------------------------------------------
// Tail pages

// TailPage is an uncompressed, append-only, write-once slot vector. Every
// slot starts as the implicit null ∅ and is written at most once by the
// writer that owns the corresponding tail RID; the lone exception is the
// lazy swap of transaction IDs for commit times in Start Time slots, which
// is a CAS that only moves the slot "forward in time". All access is via
// atomics so concurrent readers are race-free.
type TailPage struct {
	slots []uint64
}

// NewTail allocates a tail page of n slots, all ∅.
func NewTail(n int) *TailPage {
	p := &TailPage{slots: make([]uint64, n)}
	for i := range p.slots {
		p.slots[i] = types.NullSlot
	}
	return p
}

// Load atomically reads slot i.
func (p *TailPage) Load(i int) uint64 { return atomic.LoadUint64(&p.slots[i]) }

// Store atomically writes slot i. The write-once discipline is the caller's
// responsibility (enforced by RID ownership).
func (p *TailPage) Store(i int, v uint64) { atomic.StoreUint64(&p.slots[i], v) }

// CompareAndSwap atomically replaces slot i if it still holds old. Used only
// for the lazy txn-ID → commit-time swap.
func (p *TailPage) CompareAndSwap(i int, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&p.slots[i], old, new)
}

// Len returns the slot count.
func (p *TailPage) Len() int { return len(p.slots) }
