package core

import (
	"sync"
	"sync/atomic"

	"lstore/internal/bufpool"
	"lstore/internal/rid"
	"lstore/internal/txn"
	"lstore/internal/types"
)

// colVersion is one column's read-only base page set for a range, stamped
// with its in-page lineage counter (§4.2): tps is the RID of the newest tail
// record whose effect is reflected in data. The page is held through
// a buffer-pool handle, never a raw page pointer: with Config.Spill the
// bytes may live on disk, and readers pin the handle for the duration of
// their decode window (point reads pin per Get internally).
type colVersion struct {
	tps  types.RID
	data *bufpool.Handle // RangeSize slots
}

// metaVersion bundles the merge-maintained meta-columns of base records:
// Start Time (original insertion time, preserved across merges), Last
// Updated Time (populated by merge, §2.2) and the base-record Schema
// Encoding (populated by merge). Meta pages go through handles exactly like
// data pages — a sealed range can be entirely cold.
type metaVersion struct {
	tps         types.RID
	startTime   *bufpool.Handle // resolved insert commit times; ∅ = aborted insert
	lastUpdated *bufpool.Handle // commit time of newest merged update; ∅ = never
	schemaEnc   *bufpool.Handle // columns ever updated (merged view) + delete flag
}

// rangeVersion is everything a seal or merge publishes for a range: every
// column's base version, the meta-columns, and the merged-delete bitmap.
// Versions are immutable, and a new one is swapped in with one pointer
// store — §4.1's page-directory swap — so a reader that loads the version
// once sees one consistent base state.
type rangeVersion struct {
	cols []colVersion // one per schema column
	meta metaVersion
	// deleted marks slots whose delete tombstone merged into the base pages
	// (bit per slot, packed 64/word; nil = none). A merge that merges no new
	// delete shares its predecessor's slice.
	deleted []uint64
}

// mergedDeleted reports whether a merged delete tombstone covers slot.
func (v *rangeVersion) mergedDeleted(slot int) bool {
	return v.deleted != nil && v.deleted[slot>>6]&(1<<uint(slot&63)) != 0
}

// updateRange is one virtual partition of the table (§2.1): RangeSize
// consecutive base RIDs with their base pages, indirection vector, tail
// blocks, and lineage bookkeeping.
type updateRange struct {
	store    *Store
	idx      int
	firstRID types.RID
	n        int

	// indirection is the paper's table-embedded Indirection column for base
	// records: the only in-place-updated base data. Bit 63 is the write
	// latch; low bits hold the newest tail RID (0 = ⊥). Accessed exclusively
	// through atomics.
	indirection []uint64

	// everUpdated is a live per-record bitmap of columns ever updated
	// (including via uncommitted/aborted attempts); it gates the scan fast
	// path. updatedBits packs one ever-updated bit per slot (64 slots per
	// word) and is set BEFORE the matching everUpdated word, so a clear
	// packed bit guarantees a zero everUpdated word: scans classify 64
	// clean slots with a single load.
	everUpdated []atomic.Uint64
	updatedBits []atomic.Uint64 // bit per slot, packed 64/word

	// version is nil until the range is sealed; until then the base values
	// live in insertBlock (the table-level tail pages of §3.2).
	version     atomic.Pointer[rangeVersion]
	insertBlock atomic.Pointer[tailBlock]

	// Update-tail storage. tailBlocks is the ordered list of this range's
	// tail blocks; appended under tmu. The flattened sequence of records
	// across blocks is the range's tail-record order used by merge. Block bi
	// holds the RIDs span.BlockFirst(bi) onward, so a chain hop finds its
	// block in the list by arithmetic.
	span       rid.TailSpan
	tmu        sync.Mutex
	tailBlocks atomic.Pointer[[]*tailBlock]
	cur        *tailBlock // guarded by tmu for rollover; Take itself is lock-free

	// appended counts published tail records (high-watermark for merge
	// scanning). lineage holds each column's {cursor, tps} merge-state record
	// (guarded by mergeMu; see mergelineage.go for the invariants).
	// consumedMin mirrors lineage.minCursor() atomically so backlog estimates
	// (enqueue triggers, stats gauges) never block behind an in-flight merge.
	// inQueue deduplicates merge-queue entries.
	appended    atomic.Int64
	mergeMu     sync.Mutex
	lineage     mergeLineage // guarded by mergeMu
	consumedMin atomic.Int64
	inQueue     atomic.Bool

	// Historic compression state (§4.3): tail records with RID <= histUpto
	// live in hist, and their blocks are nil in tailBlocks. histBlocks
	// counts compressed blocks (guarded by mergeMu).
	hist       atomic.Pointer[historyStore]
	histUpto   atomic.Uint64
	histBlocks int64 // guarded by mergeMu
}

func newUpdateRange(s *Store, idx int, firstRID types.RID, n int) *updateRange {
	r := &updateRange{
		store:       s,
		idx:         idx,
		firstRID:    firstRID,
		n:           n,
		indirection: make([]uint64, n),
		everUpdated: make([]atomic.Uint64, n),
		updatedBits: make([]atomic.Uint64, (n+63)/64),
		lineage:     newMergeLineage(s.schema.NumCols()),
		span:        rid.NewTailSpan(idx, n, s.cfg.TailBlockSize),
	}
	empty := []*tailBlock{}
	r.tailBlocks.Store(&empty)
	// The insert range's table-level tail block: all columns materialized
	// eagerly (§3.2: "we allocate tail pages for all columns").
	r.insertBlock.Store(newTailBlock(r.span.InsertFirst(), n, s.schema.NumCols(), true))
	return r
}

// rowCount returns the number of base records allocated so far.
func (r *updateRange) rowCount() int {
	if b := r.loadBase(); b.v == nil {
		return b.ib.rids.Used()
	}
	return r.n
}

// loadIndirection reads the indirection word, masking the latch bit.
func (r *updateRange) loadIndirection(slot int) types.RID {
	return types.RID(atomic.LoadUint64(&r.indirection[slot]) & types.IndirectionRIDMask)
}

// baseView is the base state one read resolves against: the range's
// published version, or its insert block while the range is unsealed (v ==
// nil). A reader captures it before it loads an indirection word, so every
// version the merge publishes later has consumed only tail records the
// reader's chain walk also sees.
type baseView struct {
	v  *rangeVersion
	ib *tailBlock
}

// loadBase captures r's base state. Sealing publishes the version before it
// drops the insert block, so a reader that finds neither raced the seal and
// retries.
func (r *updateRange) loadBase() baseView {
	for {
		if v := r.version.Load(); v != nil {
			return baseView{v: v}
		}
		if ib := r.insertBlock.Load(); ib != nil {
			return baseView{ib: ib}
		}
	}
}

// startSlot returns the raw Start Time slot of the base record.
func (b baseView) startSlot(slot int) uint64 {
	if b.v != nil {
		return b.v.meta.startTime.Get(slot)
	}
	return b.ib.startTime.Load(slot)
}

// value returns the base value of col.
func (b baseView) value(slot, col int) uint64 {
	if b.v != nil {
		return b.v.cols[col].data.Get(slot)
	}
	if p := b.ib.dataPage(col, false); p != nil {
		return p.Load(slot)
	}
	return types.NullSlot
}

// markEverUpdated ORs bits into slot's ever-updated bitmap. The packed
// per-slot bit is published first: a scan that observes it clear may assume
// the slot's everUpdated word is still zero.
func (r *updateRange) markEverUpdated(slot int, bits uint64) {
	r.updatedBits[slot>>6].Or(1 << uint(slot&63))
	r.everUpdated[slot].Or(bits)
}

// ---------------------------------------------------------------------------
// Read views and the chain walk

// readView captures the visibility rules of one read (§5.1.1).
type readView struct {
	asOf        bool            // true: snapshot semantics at ts; false: latest
	ts          types.Timestamp // snapshot time when asOf
	selfID      types.TxnID     // own uncommitted writes are visible (0 = none)
	speculative bool            // latest mode: also see pre-committed versions
}

// latestView builds the committed-read view for t (nil t = pure committed).
func latestView(t *txn.Txn) readView {
	v := readView{}
	if t != nil {
		v.selfID = t.ID
	}
	return v
}

func asOfView(ts types.Timestamp) readView { return readView{asOf: true, ts: ts} }

// resolveSlot resolves a Start Time slot value, tolerating the
// lazy-swap/sweep race: a transaction is only swept once every slot holding
// its ID has been swapped to a plain value, so observing an unknown ID means
// the slot has since been rewritten — re-load and resolve the fresh value.
func (s *Store) resolveSlot(raw uint64, reload func() uint64) (uint64, types.Timestamp, txn.Status) {
	for attempt := 0; ; attempt++ {
		if raw == types.NullSlot || !types.IsTxnID(raw) {
			ts, st := s.tm.Resolve(raw)
			return raw, ts, st
		}
		if t, ok := s.tm.Lookup(raw); ok {
			switch t.State() {
			case txn.StateCommitted:
				return raw, t.CommitTime(), txn.StatusCommitted
			case txn.StatePreCommit:
				return raw, t.CommitTime(), txn.StatusPreCommitted
			case txn.StateAborted:
				return raw, 0, txn.StatusAborted
			default:
				return raw, 0, txn.StatusUncommitted
			}
		}
		if reload == nil || attempt > 2 {
			return raw, 0, txn.StatusAborted
		}
		next := reload()
		if next == raw {
			// Unswapped slot with an unknown ID: the sweep invariant says
			// this cannot happen; classify as tombstone.
			return raw, 0, txn.StatusAborted
		}
		raw = next
	}
}

// visible decides whether a version whose raw Start Time slot is startSlot
// is visible under the view, resolving transaction IDs through the manager.
// It also performs the paper's lazy txn-ID → commit-time swap.
func (s *Store) visible(view readView, rec *tailRecord) bool {
	slot := rec.startSlot
	if view.selfID != 0 && slot == view.selfID {
		return !view.asOf // own writes visible under latest reads
	}
	raw, ts, st := s.resolveSlot(slot, func() uint64 { return rec.block.startTime.Load(rec.slotIdx) })
	if types.IsTxnID(raw) {
		rec.startSlot = raw
		s.lazySwap(rec, ts, st)
	}
	switch st {
	case txn.StatusCommitted:
		if view.asOf {
			return ts <= view.ts
		}
		return true
	case txn.StatusPreCommitted:
		return !view.asOf && view.speculative
	default:
		return false
	}
}

// lazySwap replaces a resolved transaction ID in a Start Time slot with the
// commit time (or the ∅ tombstone for aborted writers), then lets the
// transaction manager forget drained transactions (§5.1.1 commit: "swapping
// the transaction ID with commit time is done lazily by future readers").
func (s *Store) lazySwap(rec *tailRecord, ts types.Timestamp, st txn.Status) {
	var repl uint64
	switch st {
	case txn.StatusCommitted:
		repl = ts
	case txn.StatusAborted:
		repl = types.NullSlot
	default:
		return
	}
	old := rec.startSlot
	if rec.block.startTime.CompareAndSwap(rec.slotIdx, old, repl) {
		if t, ok := s.tm.Lookup(old); ok {
			t.NoteSwapped()
		}
	}
}

// baseVisible reports whether the base record itself (its insert) is visible
// under the view, resolving unsealed insert-range start slots.
func (r *updateRange) baseVisible(s *Store, view readView, b baseView, slot int) bool {
	raw := b.startSlot(slot)
	if raw == types.NullSlot {
		return false // aborted insert or never-written slot
	}
	if view.selfID != 0 && raw == view.selfID {
		return !view.asOf
	}
	_, ts, st := s.resolveSlot(raw, func() uint64 { return b.startSlot(slot) })
	switch st {
	case txn.StatusCommitted:
		if view.asOf {
			return ts <= view.ts
		}
		return true
	case txn.StatusPreCommitted:
		return !view.asOf && view.speculative
	default:
		return false
	}
}

// readResult carries a chain walk's outcome.
type readResult struct {
	exists bool
	// decidingRID is the RID of the version that determined existence: the
	// newest visible tail record, or the base RID when the base record
	// itself is the visible version. Used by serializable validation.
	decidingRID types.RID
	hops        int // tail records visited (2-hop invariant introspection)
}

// readCols resolves the values of cols for the record at slot under view,
// writing slot-encoded values into out (len(out) == len(cols)). It returns
// exists=false when the record is invisible or deleted under the view.
//
// The walk starts from the Indirection forward pointer and follows backward
// pointers (§2.2). Latest-mode reads stop at each column's TPS watermark —
// the merged base page already reflects everything at or below it (§4.2).
// Snapshot reads walk the full chain (pre-image records make originals
// reachable, Lemma 2) and fall through to the history store once they cross
// the historic-compression boundary (§4.3).
//
// The base state is loaded BEFORE the indirection word: a merge that
// publishes after that load consumed only records the walk reaches, so the
// chain-exhausted values below are the base record's own.
func (r *updateRange) readCols(view readView, slot int, cols []int, out []uint64) readResult {
	return r.walkSlot(view, r.loadBase(), slot, cols, out)
}

// walkSlot walks slot's chain over a captured base state b: it loads the
// indirection word, then the block list, in the order walkChain needs.
func (r *updateRange) walkSlot(view readView, b baseView, slot int, cols []int, out []uint64) readResult {
	ind := r.loadIndirection(slot)
	return r.walkChain(view, b, ind, *r.tailBlocks.Load(), slot, cols, out)
}

// walkChain is readCols' walk over a captured base state b, indirection word
// ind and block list tails, loaded in that order. Every hop finds its block
// in tails, and the order makes that lookup total:
//
//   - tails is loaded after ind, so it covers every block appendTail
//     published before the indirection store the walk saw, and with it
//     every record on the chain;
//   - tails is loaded before the walk's first histUpto load.
//     compressRangeHistory stores hist, then histUpto, then the list with
//     the compacted blocks nil'd, so a walk whose tails lacks a block also
//     sees the histUpto that covers it, and turns to the history store.
//
// A hop that misses anyway is a broken chain and panics; it is never read
// as an absent version. A compaction after the load does not strand the
// walk either: the captured list keeps the blocks it names alive.
func (r *updateRange) walkChain(view readView, b baseView, ind types.RID, tails []*tailBlock, slot int, cols []int, out []uint64) readResult {
	s := r.store
	res := readResult{}
	var need uint64
	for i, c := range cols {
		out[i] = types.NullSlot
		need |= 1 << uint(c)
	}
	decided := false

	// Pure fast path for latest reads: indirection at or below every needed
	// column's TPS means base pages are current (at most the 2nd hop below).
	// Existence-only probes (len(cols)==0) always walk: an unmerged delete
	// tombstone is only discoverable on the chain.
	if !view.asOf && ind != 0 && len(cols) > 0 && b.v != nil {
		allMerged := true
		for _, c := range cols {
			if ind > b.v.cols[c].tps {
				allMerged = false
				break
			}
		}
		if allMerged {
			if b.v.mergedDeleted(slot) {
				return res
			}
			for i, c := range cols {
				out[i] = b.value(slot, c)
			}
			res.exists = true
			res.decidingRID = r.firstRID + types.RID(slot)
			return res
		}
	}

	cur := ind
	for cur.IsTail() {
		if uint64(cur) <= r.histUpto.Load() {
			// Remainder of the chain was re-organized into the history store.
			return r.readFromHistory(view, b, slot, cols, out, need, decided, res)
		}
		rec := r.tailRecord(tails, cur)
		res.hops++
		if s.visible(view, &rec) {
			if !decided {
				if rec.enc&types.SchemaDeleteFlag != 0 {
					return res // newest visible version is a delete
				}
				decided = true
				if rec.enc&types.SchemaSnapshotFlag != 0 {
					// A pre-image record preserves the ORIGINAL version; for
					// version identity (read validation) it IS the base
					// record, which decided this read before the pre-image
					// was appended.
					res.decidingRID = r.firstRID + types.RID(slot)
				} else {
					res.decidingRID = cur
				}
			}
			if need != 0 && rec.enc&types.SchemaDeleteFlag == 0 {
				for i, c := range cols {
					if need&(1<<uint(c)) == 0 {
						continue
					}
					if v, ok := rec.value(c); ok {
						out[i] = v
						need &^= 1 << uint(c)
					}
				}
			}
			if need == 0 && decided {
				res.exists = true
				return res
			}
			// Latest mode: once past a column's TPS the merged page has it.
			if !view.asOf {
				done := true
				for i, c := range cols {
					if need&(1<<uint(c)) == 0 {
						continue
					}
					if b.v != nil && cur <= b.v.cols[c].tps {
						out[i] = b.value(slot, c)
						need &^= 1 << uint(c)
					} else {
						done = false
					}
				}
				if done {
					res.exists = true
					return res
				}
			}
		}
		cur = rec.back
	}

	// Chain exhausted: the base record is the visible version for everything
	// still needed (columns never updated keep their original values in the
	// merged pages).
	if !decided {
		if !r.baseVisible(s, view, b, slot) {
			return res
		}
		res.decidingRID = r.firstRID + types.RID(slot)
	}
	for i, c := range cols {
		if need&(1<<uint(c)) != 0 {
			out[i] = b.value(slot, c)
		}
	}
	res.exists = true
	return res
}

// decidingVersion returns only the deciding RID under the view (validation
// helper; avoids materializing values).
func (r *updateRange) decidingVersion(view readView, slot int) (types.RID, bool) {
	res := r.readCols(view, slot, nil, nil)
	return res.decidingRID, res.exists
}
