package core

import (
	"lstore/internal/compress"
	"lstore/internal/txn"
	"lstore/internal/types"
)

// This file implements §4.3: compressing historic tail pages. Tail records
// that every column's merge has consumed (and thus fall below every TPS) are
// re-organized by base-RID order with each record's versions inlined
// contiguously and delta-compressed; the original tail blocks are then
// dropped from the range's block list, and Go's GC frees them once the last
// walk that captured the old list is done. Snapshot (time-travel) reads that
// walk a version chain across the compression boundary switch to the history
// store — readers of non-historic data never touch it (latest-mode reads stop
// at the TPS watermark, which is always at or above the compression
// boundary), so compression never clashes with the OLTP path.

// historyStore holds one range's compressed historic versions.
type historyStore struct {
	upto types.RID // every tail record with RID <= upto lives here
	recs map[int]*histRecord
}

// histRecord is one base record's inlined, delta-compressed version chain.
type histRecord struct {
	blob []byte
}

// histVersion is the decoded form used while building and reading.
type histVersion struct {
	rid types.RID
	ts  types.Timestamp
	enc uint64
	// vals holds one value per set data-column bit of enc, ascending by
	// column index.
	vals []uint64
}

// value returns the version's explicit value for col.
func (v *histVersion) value(col int, ncols int) (uint64, bool) {
	if v.enc&types.SchemaDeleteFlag != 0 {
		return types.NullSlot, true
	}
	if v.enc&(1<<uint(col)) == 0 {
		return 0, false
	}
	vi := 0
	for c := 0; c < col; c++ {
		if v.enc&(1<<uint(c)) != 0 {
			vi++
		}
	}
	return v.vals[vi], true
}

// encodeHist packs versions (in append = RID order) into a compact blob:
// counts, delta-coded RIDs, delta-coded times, then per version the schema
// encoding and per-column delta-coded values (§4.3's inlined delta
// compression across versions: repeated and slowly changing values cost a
// byte or two each).
func encodeHist(versions []histVersion, ncols int) []byte {
	blob := []byte(nil)
	rids := make([]uint64, len(versions))
	times := make([]uint64, len(versions))
	for i, v := range versions {
		rids[i] = uint64(v.rid)
		times[i] = v.ts
	}
	blob = compress.DeltaEncode(blob, rids)
	blob = compress.DeltaEncode(blob, times)
	prev := make([]uint64, ncols)
	for _, v := range versions {
		blob = compress.PutUvarint(blob, v.enc)
		vi := 0
		for c := 0; c < ncols; c++ {
			if v.enc&(1<<uint(c)) == 0 {
				continue
			}
			val := v.vals[vi]
			vi++
			blob = compress.PutUvarint(blob, compress.ZigZag(int64(val-prev[c])))
			prev[c] = val
		}
	}
	return blob
}

// decodeHist unpacks a blob produced by encodeHist.
func decodeHist(blob []byte, ncols int) []histVersion {
	rids, m, err := compress.DeltaDecode(blob)
	if err != nil {
		return nil
	}
	off := m
	times, m, err := compress.DeltaDecode(blob[off:])
	if err != nil {
		return nil
	}
	off += m
	versions := make([]histVersion, 0, len(rids))
	prev := make([]uint64, ncols)
	for i := range rids {
		enc, m, err := compress.Uvarint(blob[off:])
		if err != nil {
			return nil
		}
		off += m
		v := histVersion{rid: types.RID(rids[i]), ts: times[i], enc: enc}
		for c := 0; c < ncols; c++ {
			if enc&(1<<uint(c)) == 0 {
				continue
			}
			d, m, err := compress.Uvarint(blob[off:])
			if err != nil {
				return nil
			}
			off += m
			prev[c] += uint64(compress.UnZigZag(d))
			v.vals = append(v.vals, prev[c])
		}
		versions = append(versions, v)
	}
	return versions
}

// CompressHistory compresses every range's eligible historic tail blocks;
// it returns the number of tail records moved into history stores.
func (s *Store) CompressHistory() int {
	total := 0
	for i := 0; i < s.rangeCount(); i++ {
		total += s.compressRangeHistory(s.rangeAt(i))
	}
	return total
}

// compressRangeHistory moves fully merged tail blocks of r into the history
// store. Only whole blocks below every column's merge cursor move; the
// cursor never crosses an in-flight record, so everything moved is resolved.
func (s *Store) compressRangeHistory(r *updateRange) int {
	r.mergeMu.Lock()
	defer r.mergeMu.Unlock()
	tbs := int64(s.cfg.TailBlockSize)
	targetBlocks := r.lineage.minCursor() / tbs
	if targetBlocks <= r.histBlocks {
		return 0
	}
	blocks := *r.tailBlocks.Load()
	ncols := s.schema.NumCols()

	// Start from the existing store's decoded contents (re-compression
	// passes inline newer versions after older ones, preserving RID order).
	perSlot := make(map[int][]histVersion)
	if old := r.hist.Load(); old != nil {
		for slot, rec := range old.recs {
			perSlot[slot] = decodeHist(rec.blob, ncols)
		}
	}

	moved := 0
	var upto types.RID
	for bi := r.histBlocks; bi < targetBlocks; bi++ {
		b := blocks[bi]
		if b == nil {
			continue
		}
		upto = b.rids.First + types.RID(b.rids.N-1)
		for sl := 0; sl < b.rids.N; sl++ {
			if b.indirection.Load(sl) == types.NullSlot {
				continue // reserved but never published
			}
			raw := b.startTime.Load(sl)
			ts, st := s.tm.Resolve(raw)
			if st != txn.StatusCommitted {
				continue // aborted tombstones vanish here (space reclaim)
			}
			slot := int(types.RID(b.baseRID.Load(sl)) - r.firstRID)
			if slot < 0 || slot >= r.n {
				continue
			}
			enc := b.schemaEnc.Load(sl)
			v := histVersion{rid: b.rids.First + types.RID(sl), ts: ts, enc: enc}
			for c := 0; c < ncols; c++ {
				if enc&(1<<uint(c)) == 0 {
					continue
				}
				var val uint64 = types.NullSlot
				if p := b.dataPage(c, false); p != nil {
					val = p.Load(sl)
				}
				v.vals = append(v.vals, val)
			}
			perSlot[slot] = append(perSlot[slot], v)
			moved++
		}
	}

	recs := make(map[int]*histRecord, len(perSlot))
	for slot, versions := range perSlot {
		recs[slot] = &histRecord{blob: encodeHist(versions, ncols)}
	}
	// Publish the store before the boundary so readers crossing histUpto
	// always find their versions, and the boundary before the block list
	// that drops the blocks (walkChain relies on this order).
	r.hist.Store(&historyStore{upto: upto, recs: recs})
	r.histUpto.Store(uint64(upto))

	// Retire the original blocks: nil them in the block list (new slice,
	// swapped under tmu to serialize with appendTail's rollover).
	r.tmu.Lock()
	cur := *r.tailBlocks.Load()
	next := make([]*tailBlock, len(cur))
	copy(next, cur)
	for bi := r.histBlocks; bi < targetBlocks; bi++ {
		if next[bi] != nil {
			next[bi] = nil
			s.stats.PagesRetired.Add(1)
		}
	}
	r.tailBlocks.Store(&next)
	r.tmu.Unlock()

	r.histBlocks = targetBlocks
	s.stats.HistoryPasses.Add(1)
	s.stats.HistoryRecords.Add(uint64(moved))
	return moved
}

// readFromHistory completes a chain walk that crossed the compression
// boundary: remaining needed columns and (if still undecided) the record's
// existence are resolved from the history store, falling back to base
// values for never-updated columns exactly like the chain-end path.
func (r *updateRange) readFromHistory(view readView, b baseView, slot int, cols []int, out []uint64, need uint64, decided bool, res readResult) readResult {
	s := r.store
	q := view.ts
	if !view.asOf {
		q = ^uint64(0)
	}
	var versions []histVersion
	if hs := r.hist.Load(); hs != nil {
		if rec, ok := hs.recs[slot]; ok {
			versions = decodeHist(rec.blob, s.schema.NumCols())
		}
	}
	// Existence: the newest version at or before q decides; ties on ts are
	// broken by position (later RID wins).
	if !decided {
		best := -1
		var bestTS types.Timestamp
		for i := range versions {
			if versions[i].ts <= q && (best < 0 || versions[i].ts >= bestTS) {
				best, bestTS = i, versions[i].ts
			}
		}
		if best >= 0 {
			if versions[best].enc&types.SchemaDeleteFlag != 0 {
				return res // deleted as of q
			}
			decided = true
			if versions[best].enc&types.SchemaSnapshotFlag != 0 {
				// Pre-image versions carry the base record's identity (see
				// readCols).
				res.decidingRID = r.firstRID + types.RID(slot)
			} else {
				res.decidingRID = versions[best].rid
			}
		}
	}
	// Values: per column, the newest version ≤ q that defines it.
	if need != 0 {
		for i, c := range cols {
			if need&(1<<uint(c)) == 0 {
				continue
			}
			bestIdx := -1
			var bestTS types.Timestamp
			for vi := range versions {
				v := &versions[vi]
				if v.ts > q || v.enc&types.SchemaDeleteFlag != 0 {
					continue
				}
				if v.enc&(1<<uint(c)) == 0 {
					continue
				}
				if bestIdx < 0 || v.ts >= bestTS {
					bestIdx, bestTS = vi, v.ts
				}
			}
			if bestIdx >= 0 {
				if val, ok := versions[bestIdx].value(c, s.schema.NumCols()); ok {
					out[i] = val
					need &^= 1 << uint(c)
				}
			}
		}
	}
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

// HistoryRecords returns the number of base records with compressed history
// in range ri (introspection).
func (s *Store) HistoryRecords(ri int) int {
	if hs := s.rangeAt(ri).hist.Load(); hs != nil {
		return len(hs.recs)
	}
	return 0
}
