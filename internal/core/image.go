package core

import (
	"errors"
	"fmt"

	"lstore/internal/bufpool"
	"lstore/internal/page"
	"lstore/internal/types"
)

// Range images: the checkpoint fast path for cold base data. A sealed range
// that has never taken a tail record is exactly its encoded base pages plus
// its Start Time page — so the checkpoint carries those pages VERBATIM
// (page.MarshalEncoded) instead of expanding them into row tuples, and
// restore installs them back without a decode/re-encode round-trip. Hot
// ranges (any tail lineage) and string-dictionary tables keep the row path:
// their state is not reproducible from base pages alone.

// RangeImage is one cold range's serialized base pages.
type RangeImage struct {
	FirstRID types.RID // original first base RID (informational; restore re-assigns)
	N        int       // slot count (the source store's RangeSize)
	Rows     int       // visible rows (start != ∅) the image carries
	MaxStart types.Timestamp
	Cols     [][]byte // per schema column, page.MarshalEncoded
	Starts   []byte   // Start Time meta page, page.MarshalEncoded
}

// ErrImageShape reports a RangeImage that cannot install into this store's
// layout (different RangeSize); callers fall back to row-wise loading.
var ErrImageShape = errors.New("core: range image shape mismatch")

// coldRange reports whether r can be captured as a page image at snapshot
// ts: sealed, zero tail lineage (no update/delete ever appended — base pages
// ARE the range's whole state), and every Start Time slot either ∅ or a
// plain committed timestamp at or before ts (a row sealed after the cut
// would smuggle post-snapshot state into the image).
func (s *Store) coldRange(r *updateRange, ts types.Timestamp) (v *rangeVersion, ok bool) {
	v = r.version.Load() // before the tail count, so v cannot include a merge
	if v == nil || r.appended.Load() != 0 || r.n != s.cfg.RangeSize {
		return nil, false
	}
	st := v.meta.startTime.MustPin() // one pin covers the whole slot walk
	defer v.meta.startTime.Unpin()
	for i, n := 0, st.Len(); i < n; i++ {
		raw := st.Get(i)
		if raw == types.NullSlot {
			continue
		}
		if types.IsTxnID(raw) || raw > ts {
			return nil, false
		}
	}
	return v, true
}

// ColdRangeImages captures every cold range as of ts. Row-layout stores and
// tables with string columns return nil (their pages alias store-level state
// the image cannot carry); those tables checkpoint row-wise as before.
func (s *Store) ColdRangeImages(ts types.Timestamp) []RangeImage {
	if s.cfg.Layout == RowLayout {
		return nil
	}
	for _, d := range s.dicts {
		if d != nil {
			return nil // string slots are codes into the store's dictionary
		}
	}
	var out []RangeImage
	for i := 0; i < s.rangeCount(); i++ {
		r := s.rangeAt(i)
		v, ok := s.coldRange(r, ts)
		if !ok {
			continue
		}
		// Marshal from the PINNED concrete pages: marshaling a handle
		// directly would flatten the page to raw through point reads.
		st := v.meta.startTime.MustPin()
		img := RangeImage{
			FirstRID: r.firstRID,
			N:        r.n,
			Cols:     make([][]byte, s.schema.NumCols()),
			Starts:   page.MarshalEncoded(st),
		}
		for slot, n := 0, st.Len(); slot < n; slot++ {
			if raw := st.Get(slot); raw != types.NullSlot {
				img.Rows++
				if raw > img.MaxStart {
					img.MaxStart = raw
				}
			}
		}
		v.meta.startTime.Unpin()
		for c, cv := range v.cols {
			img.Cols[c] = page.MarshalEncoded(cv.data.MustPin())
			cv.data.Unpin()
		}
		out = append(out, img)
	}
	return out
}

// InstallRangeImage transforms the store's CURRENT (completely unused)
// insert range into a sealed range holding the image's pages, then opens a
// fresh insert range. Records keep their original commit timestamps — the
// caller must afterwards be able to rely on the clock having passed them,
// which InstallRangeImage guarantees via txn.Manager.AdvanceTo. row is
// called once per visible row with its new base RID's key and decoded
// values (the restore path re-logs them into the WAL); a nil row skips the
// callback. Returns the number of visible rows installed.
//
// Only restore-time callers may use this: the unused-insert-range
// precondition makes it safe, and a concurrent writer would violate it.
func (s *Store) InstallRangeImage(img RangeImage, row func(key int64, vals []types.Value) error) (int, error) {
	if img.N != s.cfg.RangeSize || s.cfg.Layout == RowLayout {
		return 0, ErrImageShape
	}
	ncols := s.schema.NumCols()
	if len(img.Cols) != ncols {
		return 0, fmt.Errorf("core: range image has %d columns, schema has %d", len(img.Cols), ncols)
	}
	for _, d := range s.dicts {
		if d != nil {
			return 0, ErrImageShape
		}
	}
	pages := make([]page.Reader, ncols)
	for c := range pages {
		p, err := page.UnmarshalEncoded(img.Cols[c])
		if err != nil {
			return 0, fmt.Errorf("core: range image column %d: %w", c, err)
		}
		if p.Len() != img.N {
			return 0, fmt.Errorf("core: range image column %d has %d slots, want %d", c, p.Len(), img.N)
		}
		pages[c] = p
	}
	starts, err := page.UnmarshalEncoded(img.Starts)
	if err != nil {
		return 0, fmt.Errorf("core: range image start page: %w", err)
	}
	if starts.Len() != img.N {
		return 0, fmt.Errorf("core: range image start page has %d slots, want %d", starts.Len(), img.N)
	}

	s.insertMu.Lock()
	defer s.insertMu.Unlock()
	r := s.curInsert.Load()
	ib := r.insertBlock.Load()
	if ib == nil || ib.rids.Used() != 0 || ib.pending.Load() != 0 {
		return 0, fmt.Errorf("core: install target insert range already in use")
	}

	// Index every visible row under its NEW base RID, validating as we go.
	installed := 0
	var maxStart types.Timestamp
	keyPage := pages[s.schema.Key]
	for slot := 0; slot < img.N; slot++ {
		raw := starts.Get(slot)
		if raw == types.NullSlot {
			continue
		}
		if types.IsTxnID(raw) {
			return installed, fmt.Errorf("core: range image start slot %d is an unresolved transaction id", slot)
		}
		baseRID := r.firstRID + types.RID(slot)
		ksv := keyPage.Get(slot)
		if ksv == types.NullSlot {
			return installed, fmt.Errorf("core: range image slot %d has a null primary key", slot)
		}
		if _, ok := s.primary.PutIfAbsent(ksv, baseRID); !ok {
			return installed, fmt.Errorf("%w: range image key %d", ErrDuplicateKey, types.DecodeInt64(ksv))
		}
		for c, sec := range s.secondary {
			if sv := pages[c].Get(slot); sv != types.NullSlot {
				sec.Add(sv, baseRID)
			}
		}
		if raw > maxStart {
			maxStart = raw
		}
		installed++
	}

	// Publish the version, then drop the insert block — the order a normal
	// seal uses. TPS 0 on everything: zero tail lineage by construction.
	// With a spill attached the restored pages spill like any seal would;
	// the const meta pages stay resident (a handful of words each, and a
	// cold range's Last Updated/Schema Encoding are never checkpointed).
	v := &rangeVersion{cols: make([]colVersion, ncols), meta: metaVersion{
		tps:         0,
		startTime:   s.publishPage(r, ncols+spillSlotStart, starts),
		lastUpdated: bufpool.NewResident(page.NewConst(types.NullSlot, img.N)),
		schemaEnc:   bufpool.NewResident(page.NewConst(0, img.N)),
	}}
	for c := range pages {
		v.cols[c] = colVersion{tps: 0, data: s.publishPage(r, c, pages[c])}
	}
	r.version.Store(v)
	r.insertBlock.Store(nil)
	s.stats.Seals.Add(1)
	s.stats.Inserts.Add(uint64(installed))
	// New transactions must commit after every installed record's time.
	s.tm.AdvanceTo(maxStart)

	if _, err := s.addInsertRange(); err != nil {
		return installed, err
	}

	if row != nil {
		vals := make([]types.Value, ncols)
		for slot := 0; slot < img.N; slot++ {
			if starts.Get(slot) == types.NullSlot {
				continue
			}
			for c := range vals {
				vals[c] = s.decodeValue(c, pages[c].Get(slot))
			}
			if err := row(types.DecodeInt64(keyPage.Get(slot)), vals); err != nil {
				return installed, err
			}
		}
	}
	return installed, nil
}

// RangeImageRows decodes an image's visible rows to value tuples — the
// restore fallback when the image cannot install directly (ErrImageShape:
// the restoring store runs a different RangeSize). Rows then BulkLoad like
// any checkpointed row batch.
func (s *Store) RangeImageRows(img RangeImage) ([][]types.Value, error) {
	ncols := s.schema.NumCols()
	if len(img.Cols) != ncols {
		return nil, fmt.Errorf("core: range image has %d columns, schema has %d", len(img.Cols), ncols)
	}
	pages := make([]page.Reader, ncols)
	for c := range pages {
		p, err := page.UnmarshalEncoded(img.Cols[c])
		if err != nil {
			return nil, fmt.Errorf("core: range image column %d: %w", c, err)
		}
		if p.Len() != img.N {
			return nil, fmt.Errorf("core: range image column %d has %d slots, want %d", c, p.Len(), img.N)
		}
		pages[c] = p
	}
	starts, err := page.UnmarshalEncoded(img.Starts)
	if err != nil {
		return nil, fmt.Errorf("core: range image start page: %w", err)
	}
	if starts.Len() != img.N {
		return nil, fmt.Errorf("core: range image start page has %d slots, want %d", starts.Len(), img.N)
	}
	var rows [][]types.Value
	for slot := 0; slot < img.N; slot++ {
		if starts.Get(slot) == types.NullSlot {
			continue
		}
		vals := make([]types.Value, ncols)
		for c := range vals {
			vals[c] = s.decodeValue(c, pages[c].Get(slot))
		}
		rows = append(rows, vals)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Spill-descriptor references (checkpoint v3's framePageRef)

// RangeRef is one cold range's base pages referenced by spill descriptor:
// the same shape as RangeImage with (offset, length, CRC) descriptors in
// place of payload bytes. A checkpoint carrying refs is valid only together
// with the spill file that produced them; restore re-attaches that file and
// resolves each descriptor back to the identical page.MarshalEncoded bytes
// a framePageRange would have shipped.
type RangeRef struct {
	FirstRID types.RID
	N        int
	Rows     int
	MaxStart types.Timestamp
	Cols     []SpillDesc // per schema column
	Starts   SpillDesc   // Start Time meta page
}

// ColdRangeRefs captures every cold range as of ts by spill descriptor.
// Only ranges whose every page actually reached the spill file qualify — a
// spill-write failure leaves a resident page with no descriptor, and such a
// range simply falls back to the byte-shipping image path (the caller pairs
// ColdRangeRefs with ColdRangeImages over the remaining ranges). Exclusions
// match ColdRangeImages: row layout and dictionary tables never qualify.
func (s *Store) ColdRangeRefs(ts types.Timestamp) []RangeRef {
	if s.pool == nil || s.cfg.Layout == RowLayout {
		return nil
	}
	for _, d := range s.dicts {
		if d != nil {
			return nil // spilled codes are meaningless without this store's dict
		}
	}
	var out []RangeRef
	for i := 0; i < s.rangeCount(); i++ {
		r := s.rangeAt(i)
		v, ok := s.coldRange(r, ts)
		if !ok {
			continue
		}
		stDesc, ok := v.meta.startTime.Desc()
		if !ok {
			continue
		}
		ref := RangeRef{
			FirstRID: r.firstRID,
			N:        r.n,
			Cols:     make([]SpillDesc, s.schema.NumCols()),
			Starts:   stDesc,
		}
		st := v.meta.startTime.MustPin()
		for slot, n := 0, st.Len(); slot < n; slot++ {
			if raw := st.Get(slot); raw != types.NullSlot {
				ref.Rows++
				if raw > ref.MaxStart {
					ref.MaxStart = raw
				}
			}
		}
		v.meta.startTime.Unpin()
		complete := true
		for c, cv := range v.cols {
			if ref.Cols[c], ok = cv.data.Desc(); !ok {
				complete = false
				break
			}
		}
		if complete {
			out = append(out, ref)
		}
	}
	return out
}

// ResolveRangeRef reads a RangeRef's frames back from the attached spill
// file into a RangeImage (the restore path). Every frame is CRC-verified by
// the spill sink, so a descriptor paired with the wrong spill file fails
// loudly here instead of installing corrupt pages.
func (s *Store) ResolveRangeRef(ref RangeRef) (RangeImage, error) {
	img := RangeImage{
		FirstRID: ref.FirstRID,
		N:        ref.N,
		Rows:     ref.Rows,
		MaxStart: ref.MaxStart,
		Cols:     make([][]byte, len(ref.Cols)),
	}
	if s.cfg.Spill == nil {
		return img, fmt.Errorf("core: checkpoint references spilled pages but no spill file is attached")
	}
	var err error
	if img.Starts, err = s.ReadSpill(ref.Starts); err != nil {
		return img, fmt.Errorf("core: range ref start page: %w", err)
	}
	for c, d := range ref.Cols {
		if img.Cols[c], err = s.ReadSpill(d); err != nil {
			return img, fmt.Errorf("core: range ref column %d: %w", c, err)
		}
	}
	return img, nil
}
