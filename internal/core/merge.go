package core

import (
	"lstore/internal/bufpool"
	"lstore/internal/page"
	"lstore/internal/txn"
	"lstore/internal/types"
)

// This file implements §4: the contention-free, relaxed merge.
//
// Writers enqueue ranges whose unmerged committed tail backlog crossed the
// MergeBatch threshold; the merge worker drains the queue in the background
// (Figure 5). A merge:
//
//  1. identifies a consecutive prefix of committed tail records,
//  2. loads the outdated base pages (only of updated columns),
//  3. consolidates them by applying the newest value per (record, column)
//     in a reverse scan (Algorithm 1), skipping pre-image snapshot records
//     and aborted tombstones,
//  4. swaps the range's version pointer (the only foreground action),
//  5. releases the outdated pages' buffer-pool handles. Readers that loaded
//     the old version keep its pages reachable, and Go's GC frees them once
//     the last such reader is done (Figure 6's grace period).
//
// The Indirection column is never read or written by the merge; writers keep
// appending and readers keep reading throughout. TPS — the RID of the last
// consolidated tail record — is stamped into every new column version.
// Columns may merge independently (§4.2): each column keeps its own merge
// cursor, and re-applying an already-consolidated record is idempotent, so
// full merges and per-column merges compose freely.

// maybeEnqueueMerge queues r for background merging when its backlog is due.
func (s *Store) maybeEnqueueMerge(r *updateRange) {
	if !s.cfg.AutoMerge || s.closed.Load() {
		return
	}
	needsSeal := r.version.Load() == nil && r.insertFull()
	if r.pendingTail() < int64(s.cfg.MergeBatch) && !needsSeal {
		return
	}
	if r.inQueue.CompareAndSwap(false, true) {
		select {
		case s.mergeQ <- r:
		default:
			r.inQueue.Store(false) // queue full; a later writer re-enqueues
		}
	}
}

// pendingTail estimates unconsumed tail records (appended minus the least
// advanced column cursor; an un-merged column keeps the backlog visible).
// Lock-free: reads the atomic mirror of the min cursor, so writers and stats
// pollers never block behind an in-flight merge.
func (r *updateRange) pendingTail() int64 {
	return r.appended.Load() - r.consumedMin.Load()
}

// insertFull reports whether the insert range has handed out every base RID.
func (r *updateRange) insertFull() bool {
	ib := r.insertBlock.Load()
	return ib == nil || ib.rids.Used() >= r.n
}

// mergeWorker is one thread of the merge-scheduler pool (§6.1 runs exactly
// one; Config.MergeWorkers sizes the pool). Workers pop distinct ranges off
// the shared queue, so ranges merge concurrently while each range's merges
// serialize on its lineage lock.
func (s *Store) mergeWorker() {
	defer s.mergeWG.Done()
	for r := range s.mergeQ {
		r.inQueue.Store(false)
		if r.version.Load() == nil {
			s.TrySeal(r)
		}
		s.mergeRange(r, -1)
		// Forget finished transactions whose Start Time slots have all been
		// lazily swapped (§5.1.1's transaction-manager hashtable hygiene).
		s.tm.Sweep()
	}
}

func allColsMask(n int) uint64 { return 1<<uint(n) - 1 }

// ---------------------------------------------------------------------------
// Sealing an insert range (§3.2 "merging table-level tail-pages")

// TrySeal converts a full insert range's table-level tail pages into
// compressed read-only base pages (TPS 0). It requires every inserted record
// resolved (committed or aborted); otherwise it reports false and the range
// is re-enqueued by a later writer. Sealing moves the range "outside the
// insert range", making it eligible for regular merges.
func (s *Store) TrySeal(r *updateRange) bool {
	r.mergeMu.Lock()
	defer r.mergeMu.Unlock()
	if r.version.Load() != nil {
		return true
	}
	ib := r.insertBlock.Load()
	if ib == nil {
		return false
	}
	if ib.rids.Used() < r.n {
		return false // auto-seal only full ranges; ForceSeal handles tails
	}
	return s.sealLocked(r, ib)
}

// ForceSeal seals a partially filled insert range (tests, shutdown flushes).
// Unfilled slots remain permanently invisible.
func (s *Store) ForceSeal(r *updateRange) bool {
	r.mergeMu.Lock()
	defer r.mergeMu.Unlock()
	if r.version.Load() != nil {
		return true
	}
	ib := r.insertBlock.Load()
	if ib == nil {
		return false
	}
	return s.sealLocked(r, ib)
}

func (s *Store) sealLocked(r *updateRange, ib *tailBlock) bool {
	// Quiesce reservations before reading anything: a reserved slot whose
	// Start Time is still ∅ is indistinguishable from a neutralized one, so
	// sealing past an in-flight insert would silently discard the record.
	// Inserters announce through pending BEFORE checking sealing and taking
	// a slot, so once sealing is set and pending reads 0, no further take
	// can succeed and the Used() snapshot below is final. On deferral the
	// inserter re-enqueues the range when it finishes (or rolls over).
	ib.sealing.Store(true)
	if ib.pending.Load() != 0 {
		ib.sealing.Store(false)
		return false
	}
	used := ib.rids.Used()
	n := r.n
	a := getMergeArena()
	defer putMergeArena(a)
	// Every published record must be resolved; pending writers or
	// unresolved transactions defer the seal.
	starts := a.u64(&a.starts, n)
	for i := 0; i < used; i++ {
		raw := ib.startTime.Load(i)
		if raw == types.NullSlot {
			starts[i] = types.NullSlot // aborted or neutralized slot
			continue
		}
		ts, st := s.tm.Resolve(raw)
		switch st {
		case txn.StatusCommitted:
			starts[i] = ts
			if types.IsTxnID(raw) {
				if t, ok := s.tm.Lookup(raw); ok && ib.startTime.CompareAndSwap(i, raw, ts) {
					t.NoteSwapped()
				}
			}
		case txn.StatusAborted:
			starts[i] = types.NullSlot
		default:
			return false // still in flight
		}
	}
	for i := used; i < n; i++ {
		starts[i] = types.NullSlot
	}

	ncols := s.schema.NumCols()
	next := &rangeVersion{cols: make([]colVersion, ncols)}
	if s.cfg.Layout == RowLayout {
		slab := make([]uint64, n*ncols)
		for c := 0; c < ncols; c++ {
			p := ib.dataPage(c, false)
			for i := 0; i < n; i++ {
				v := types.NullSlot
				if p != nil && i < used && starts[i] != types.NullSlot {
					v = p.Load(i)
				}
				slab[i*ncols+c] = v
			}
		}
		for c := 0; c < ncols; c++ {
			// Row slabs never spill (point-read locality is their purpose).
			next.cols[c] = colVersion{tps: 0, data: bufpool.NewResident(rowView{data: slab, ncols: ncols, col: c, n: n})}
		}
	} else {
		vals := a.u64(&a.vals, n) // one arena buffer, refilled per column
		for c := 0; c < ncols; c++ {
			p := ib.dataPage(c, false)
			for i := 0; i < n; i++ {
				if p != nil && i < used && starts[i] != types.NullSlot {
					vals[i] = p.Load(i)
				} else {
					vals[i] = types.NullSlot
				}
			}
			next.cols[c] = colVersion{tps: 0, data: s.publishPage(r, c, s.encodePage(vals))}
		}
	}

	nulls := a.u64(&a.meta1, n)
	zeros := a.u64(&a.meta2, n)
	for i := range nulls {
		nulls[i] = types.NullSlot
		zeros[i] = 0
	}
	next.meta = metaVersion{
		tps:         0,
		startTime:   s.publishPage(r, ncols+spillSlotStart, s.encodePage(starts)),
		lastUpdated: s.publishPage(r, ncols+spillSlotLastUpdated, s.encodePage(nulls)),
		schemaEnc:   s.publishPage(r, ncols+spillSlotSchemaEnc, s.encodePage(zeros)),
	}
	r.version.Store(next)

	// Step 5 for table-level tail pages: unlike regular tail pages they are
	// discarded permanently once pre-seal readers drain (§4.1).
	r.insertBlock.Store(nil)
	s.stats.Seals.Add(1)
	return true
}

// rowView adapts a row-major slab to the per-column page.Reader interface;
// it is the L-Store (Row) layout of Tables 8 and 9. Point reads touch one
// cache line per record; scans stride by the schema width.
type rowView struct {
	data  []uint64
	ncols int
	col   int
	n     int
}

func (v rowView) Get(i int) uint64 { return v.data[i*v.ncols+v.col] }
func (v rowView) Len() int         { return v.n }
func (v rowView) Kind() page.Kind  { return page.KindRaw }
func (v rowView) MemWords() int    { return v.n }

// asRowView unwraps the row slab behind a version handle. Row slabs never
// spill (Config.validate rejects Spill with RowLayout), so the handle is
// always resident and the pin is free.
func asRowView(h *bufpool.Handle) (rowView, bool) {
	pg := h.MustPin()
	v, ok := pg.(rowView)
	h.Unpin()
	return v, ok
}

// ---------------------------------------------------------------------------
// The relaxed merge (§4.1)

// mergedTail is one resolved tail record staged for consolidation.
type mergedTail struct {
	rid     types.RID
	enc     uint64
	ts      types.Timestamp
	aborted bool
	block   *tailBlock
	slotIdx int
}

// collectPrefixLocked appends up to limit resolved tail records starting at
// flat position from to out: records are included while their transactions
// are committed or aborted; the first in-flight (or unpublished) record stops
// the scan — "a set of consecutive fully committed tail records" (§4.1).
func (s *Store) collectPrefixLocked(r *updateRange, from int64, limit int, out []mergedTail) []mergedTail {
	blocksPtr := r.tailBlocks.Load()
	blocks := *blocksPtr
	tbs := int64(s.cfg.TailBlockSize)
	for pos := from; pos < from+int64(limit); pos++ {
		bi := pos / tbs
		if bi >= int64(len(blocks)) || blocks[bi] == nil {
			break
		}
		b := blocks[bi]
		sl := int(pos % tbs)
		if b.indirection.Load(sl) == types.NullSlot {
			break // reserved but unpublished
		}
		raw := b.startTime.Load(sl)
		_, ts, st := s.resolveSlot(raw, func() uint64 { return b.startTime.Load(sl) })
		switch st {
		case txn.StatusCommitted:
			out = append(out, mergedTail{
				rid: b.rids.First + types.RID(sl), enc: b.schemaEnc.Load(sl),
				ts: ts, block: b, slotIdx: sl,
			})
		case txn.StatusAborted:
			out = append(out, mergedTail{
				rid: b.rids.First + types.RID(sl), enc: b.schemaEnc.Load(sl),
				aborted: true, block: b, slotIdx: sl,
			})
		default:
			return out
		}
	}
	return out
}

// mergeRange consolidates the committed tail prefix into new base versions.
// col == -1 merges every column together (and refreshes the merge-maintained
// meta-columns); col >= 0 merges that column independently with its own
// lineage record (§4.2). Returns the number of tail records consumed.
//
// Full merges scan from the least-advanced cursor, but each column's
// EFFECTIVE start is its own cursor: prefix records below it were already
// consolidated into that column's base version (by an earlier independent
// column merge), and re-applying them would clobber newer merged values.
// Published TPS is max(old, new), so full and per-column merges compose in
// any order without regressing any column's lineage.
func (s *Store) mergeRange(r *updateRange, col int) int {
	r.mergeMu.Lock()
	defer r.mergeMu.Unlock()
	cur := r.version.Load() // a sealed range's publishers all hold mergeMu
	if cur == nil {
		return 0 // base records must be outside the insert range (§3.2)
	}
	ncols := s.schema.NumCols()
	var from int64
	if col >= 0 {
		from = r.lineage.cursor(col)
	} else {
		from = r.lineage.minCursor()
	}
	a := getMergeArena()
	defer putMergeArena(a)
	a.prefix = s.collectPrefixLocked(r, from, 4*s.cfg.MergeBatch, a.prefix[:0])
	prefix := a.prefix
	if len(prefix) == 0 {
		return 0
	}
	newTPS := prefix[len(prefix)-1].rid
	end := from + int64(len(prefix))

	var targets uint64
	if col >= 0 {
		targets = 1 << uint(col)
	} else {
		targets = allColsMask(ncols)
	}

	// Steps 2–3: copy the outdated pages of target columns and apply the
	// newest resolved value per (record, column), scanning in reverse.
	// Column-layout decode buffers come from the arena; the row slab cannot
	// (it is published inside the new rowView versions).
	var rowSlab []uint64
	a.colScratch(ncols)
	if s.cfg.Layout == RowLayout {
		// Independent column merges can leave columns pointing at diverged
		// slabs; a full merge must then rebuild from each column's OWN
		// version so no column's consolidated state is lost. In the common
		// case every column still shares one slab — copy it wholesale.
		first, _ := asRowView(cur.cols[0].data)
		shared := true
		for c := 1; c < ncols && shared; c++ {
			v, ok := asRowView(cur.cols[c].data)
			shared = ok && &v.data[0] == &first.data[0]
		}
		switch {
		case shared:
			rowSlab = make([]uint64, len(first.data))
			copy(rowSlab, first.data)
		case col >= 0:
			// A per-column merge publishes a view of one column; only that
			// stride of the new slab is ever read.
			rowSlab = make([]uint64, r.n*ncols)
			src := cur.cols[col].data
			for i := 0; i < r.n; i++ {
				rowSlab[i*ncols+col] = src.Get(i)
			}
		default:
			rowSlab = make([]uint64, r.n*ncols)
			for c := 0; c < ncols; c++ {
				src := cur.cols[c].data
				for i := 0; i < r.n; i++ {
					rowSlab[i*ncols+c] = src.Get(i)
				}
			}
		}
	}
	colVals := func(c int) []uint64 {
		if !a.workUsed[c] {
			a.work[c] = decodeInto(a.work[c][:0], cur.cols[c].data)
			a.workUsed[c] = true
		}
		return a.work[c]
	}
	set := func(c, slot int, v uint64) {
		if rowSlab != nil {
			rowSlab[slot*ncols+c] = v
		} else {
			colVals(c)[slot] = v
		}
	}

	applied := make(map[int]uint64)            // slot -> column bits applied
	appliedTS := make(map[int]types.Timestamp) // slot -> newest applied commit time
	deleted := make(map[int]bool)
	for i := len(prefix) - 1; i >= 0; i-- {
		m := &prefix[i]
		pos := from + int64(i) // flat tail position of this record
		if m.aborted || m.enc&types.SchemaSnapshotFlag != 0 {
			continue // tombstones and pre-images carry no new state
		}
		slot := int(types.RID(m.block.baseRID.Load(m.slotIdx)) - r.firstRID)
		if slot < 0 || slot >= r.n {
			continue
		}
		if _, seen := appliedTS[slot]; !seen {
			appliedTS[slot] = m.ts
		}
		if m.enc&types.SchemaDeleteFlag != 0 {
			if applied[slot] == 0 && !deleted[slot] {
				deleted[slot] = true
				for c := 0; c < ncols; c++ {
					if targets&(1<<uint(c)) != 0 {
						set(c, slot, types.NullSlot)
					}
				}
				applied[slot] = allColsMask(ncols)
			}
			continue
		}
		newBits := m.enc & targets &^ applied[slot]
		for c := 0; c < ncols && newBits != 0; c++ {
			bit := uint64(1) << uint(c)
			if newBits&bit == 0 {
				continue
			}
			newBits &^= bit
			applied[slot] |= bit
			if pos < r.lineage.cursor(c) {
				// Column c's effective start: its base version already
				// reflects this record (and everything newer below its
				// cursor); re-applying would overwrite newer merged state.
				continue
			}
			rec := tailRecord{enc: m.enc, block: m.block, slotIdx: m.slotIdx}
			if v, ok := rec.value(c); ok {
				set(c, slot, v)
			}
		}
	}

	// Step 4: build the next version and swap it in. Each target column
	// publishes max(old, new): a column untouched by the consumed prefix
	// still gets the lineage bump (none of those records changed it), while
	// a column whose independent merge ran ahead keeps its TPS and its pages.
	next := &rangeVersion{cols: append([]colVersion(nil), cur.cols...), meta: cur.meta, deleted: cur.deleted}
	for c := 0; c < ncols; c++ {
		if targets&(1<<uint(c)) == 0 {
			continue
		}
		stamped := r.lineage.advance(c, end, newTPS)
		switch {
		case rowSlab != nil:
			next.cols[c] = colVersion{tps: stamped, data: bufpool.NewResident(rowView{data: rowSlab, ncols: ncols, col: c, n: r.n})}
		case a.workUsed[c]:
			next.cols[c] = colVersion{tps: stamped, data: s.publishPage(r, c, s.encodePage(a.work[c]))}
		default:
			next.cols[c].tps = stamped // lineage-only bump: the pages are shared
		}
	}

	// Merged deletes become visible to the point-read fast path.
	if len(deleted) > 0 {
		next.deleted = make([]uint64, (r.n+63)/64)
		copy(next.deleted, cur.deleted)
		for slot := range deleted {
			next.deleted[slot>>6] |= 1 << uint(slot&63)
		}
	}

	// Meta-columns: full merges refresh Last Updated Time and the base
	// Schema Encoding (§2.2: "populated after the merge"); the original
	// Start Time column is preserved.
	if col < 0 {
		last := decodeInto(a.meta1[:0], cur.meta.lastUpdated)
		encs := decodeInto(a.meta2[:0], cur.meta.schemaEnc)
		a.meta1, a.meta2 = last, encs
		for slot, ts := range appliedTS {
			if last[slot] == types.NullSlot || last[slot] < ts {
				last[slot] = ts
			}
		}
		for slot, bits := range applied {
			if deleted[slot] {
				encs[slot] |= types.SchemaDeleteFlag
			}
			encs[slot] |= bits &^ types.SchemaDeleteFlag
		}
		next.meta = metaVersion{
			tps:         r.lineage.advanceMeta(end, newTPS),
			startTime:   cur.meta.startTime, // preserved across merges: handle reused
			lastUpdated: s.publishPage(r, ncols+spillSlotLastUpdated, s.encodePage(last)),
			schemaEnc:   s.publishPage(r, ncols+spillSlotSchemaEnc, s.encodePage(encs)),
		}
	}
	r.version.Store(next)
	s.retireVersion(cur, next)

	r.consumedMin.Store(r.lineage.minCursor())
	s.stats.Merges.Add(1)
	s.stats.MergedTailRecords.Add(uint64(len(prefix)))
	return len(prefix)
}

// retireVersion releases every page handle of old that next no longer
// shares (§4.1 step 5, Figure 6) and counts the column versions it
// replaced. Readers that still hold old keep their pins, late ones reload
// spilled bytes, and Go's GC frees the pages once the last reference drops.
func (s *Store) retireVersion(old, next *rangeVersion) {
	for c := range old.cols {
		if old.cols[c] == next.cols[c] {
			continue
		}
		if old.cols[c].data != next.cols[c].data {
			old.cols[c].data.Release()
		}
		s.stats.PagesRetired.Add(1)
	}
	if old.meta.lastUpdated != next.meta.lastUpdated {
		old.meta.lastUpdated.Release()
		old.meta.schemaEnc.Release()
	}
}

// ForceMerge runs full merges synchronously until every backlog is drained
// (deterministic tests and benchmarks). It returns total records consumed.
func (s *Store) ForceMerge() int {
	total := 0
	for i := 0; i < s.rangeCount(); i++ {
		r := s.rangeAt(i)
		if r.version.Load() == nil && r.insertFull() {
			s.TrySeal(r)
		}
		for {
			n := s.mergeRange(r, -1)
			total += n
			if n == 0 {
				break
			}
		}
	}
	return total
}

// MergeColumn merges only the given column for range ri (the independent
// per-column lineage of §4.2). Returns records consumed.
func (s *Store) MergeColumn(ri, col int) int {
	r := s.rangeAt(ri)
	if r.version.Load() == nil && !s.TrySeal(r) {
		return 0
	}
	return s.mergeRange(r, col)
}

// SealRange force-seals range ri (tests).
func (s *Store) SealRange(ri int) bool { return s.ForceSeal(s.rangeAt(ri)) }

// CheckTPSConsistency reports whether all columns of range ri share one TPS
// (Lemma 3's detectability check: a reader assembling a multi-column base
// snapshot verifies this before trusting base pages wholesale; on mismatch
// it reconstructs per column from tail records, Theorem 2 — which is exactly
// what readCols does by consulting each column's own TPS).
func (s *Store) CheckTPSConsistency(ri int) (types.RID, bool) {
	v := s.rangeAt(ri).version.Load()
	if v == nil {
		return 0, true // unsealed: trivially consistent (all TPS 0)
	}
	for _, cv := range v.cols[1:] {
		if cv.tps != v.cols[0].tps {
			return v.cols[0].tps, false
		}
	}
	return v.cols[0].tps, true
}

// RangeTPS returns column col's TPS for range ri (introspection).
func (s *Store) RangeTPS(ri, col int) types.RID {
	if v := s.rangeAt(ri).version.Load(); v != nil {
		return v.cols[col].tps
	}
	return 0
}
