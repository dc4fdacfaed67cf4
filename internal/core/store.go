package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lstore/internal/bufpool"
	"lstore/internal/index"
	"lstore/internal/pagedir"
	"lstore/internal/rid"
	"lstore/internal/txn"
	"lstore/internal/types"
)

// Store is one L-Store table: the lineage-based storage engine plus its
// indexes. All methods are safe for concurrent use.
type Store struct {
	cfg    Config
	schema types.Schema
	tm     *txn.Manager

	baseAlloc *rid.BaseAllocator

	// Beyond-RAM base storage (nil without Config.Spill): pool is the
	// pinnable buffer pool over the spill sink, and spillDir is the page
	// directory of spilled base pages — entries hold descriptors (offset +
	// length + CRC) rather than live pages, keyed by spillKey; the merge's
	// publish swaps descriptors exactly like its version-pointer swap.
	pool     *bufpool.Pool
	spillDir *pagedir.Directory[SpillDesc]

	rangesMu  sync.RWMutex
	ranges    []*updateRange // guarded by rangesMu
	curInsert atomic.Pointer[updateRange]
	insertMu  sync.Mutex // serializes insert-range rollover

	primary   *index.Primary
	secondary map[int]*index.Secondary
	dicts     []*stringDict

	mergeQ  chan *updateRange
	mergeWG sync.WaitGroup
	closed  atomic.Bool

	stats Stats
}

// NewStore creates a table with the given schema over a shared transaction
// manager (a database holds one across its tables).
func NewStore(schema types.Schema, cfg Config, tm *txn.Manager) (*Store, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.RangeSize%cfg.TailBlockSize != 0 {
		return nil, fmt.Errorf("core: TailBlockSize %d must divide RangeSize %d", cfg.TailBlockSize, cfg.RangeSize)
	}
	if tm == nil {
		tm = txn.NewManager()
	}
	s := &Store{
		cfg:       cfg,
		schema:    schema,
		tm:        tm,
		baseAlloc: rid.NewBaseAllocator(),
		primary:   index.NewPrimary(),
		secondary: make(map[int]*index.Secondary),
		dicts:     make([]*stringDict, schema.NumCols()),
		mergeQ:    make(chan *updateRange, 1024),
	}
	if cfg.Spill != nil {
		s.pool = bufpool.New(cfg.Spill, cfg.PoolBytes)
		s.spillDir = pagedir.New[SpillDesc]()
	}
	for _, c := range cfg.SecondaryIndexColumns {
		if c < 0 || c >= schema.NumCols() {
			return nil, fmt.Errorf("core: secondary index column %d out of range", c)
		}
		s.secondary[c] = index.NewSecondary()
	}
	for i, c := range schema.Cols {
		if c.Type == types.String {
			s.dicts[i] = newStringDict()
		}
	}
	if _, err := s.addInsertRange(); err != nil {
		return nil, err
	}
	if cfg.AutoMerge {
		for i := 0; i < cfg.MergeWorkers; i++ {
			s.mergeWG.Add(1)
			go s.mergeWorker()
		}
	}
	return s, nil
}

// Close stops the background merge worker. The store remains readable.
func (s *Store) Close() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.mergeQ)
		s.mergeWG.Wait()
	}
}

// TxnManager exposes the shared transaction manager.
func (s *Store) TxnManager() *txn.Manager { return s.tm }

// Schema returns the table schema.
func (s *Store) Schema() types.Schema { return s.schema }

// Config returns the effective configuration.
func (s *Store) Config() Config { return s.cfg }

func (s *Store) addInsertRange() (*updateRange, error) {
	first, err := s.baseAlloc.ReserveSpan(s.cfg.RangeSize)
	if err != nil {
		return nil, err
	}
	s.rangesMu.Lock()
	r := newUpdateRange(s, len(s.ranges), first, s.cfg.RangeSize)
	s.ranges = append(s.ranges, r)
	s.rangesMu.Unlock()
	s.curInsert.Store(r)
	return r, nil
}

// rangeCount returns how many ranges exist.
func (s *Store) rangeCount() int {
	s.rangesMu.RLock()
	defer s.rangesMu.RUnlock()
	return len(s.ranges)
}

func (s *Store) rangeAt(i int) *updateRange {
	s.rangesMu.RLock()
	defer s.rangesMu.RUnlock()
	return s.ranges[i]
}

// ---------------------------------------------------------------------------
// Insert (§3.2)

// Insert adds a new record with one value per schema column. The key column
// must be non-null and unique among live records.
func (s *Store) Insert(t *txn.Txn, vals []types.Value) error {
	if len(vals) != s.schema.NumCols() {
		return fmt.Errorf("core: insert arity %d, schema has %d columns", len(vals), s.schema.NumCols())
	}
	if vals[s.schema.Key].IsNull() {
		return fmt.Errorf("core: null primary key")
	}
	slots := make([]uint64, len(vals))
	for i, v := range vals {
		sv, err := s.encodeValue(i, v)
		if err != nil {
			return fmt.Errorf("core: column %q: %w", s.schema.Cols[i].Name, err)
		}
		slots[i] = sv
	}
	keySlot := slots[s.schema.Key]

	// Reserve a base RID (and its aligned table-level tail slot).
	r, ib, slot, err := s.takeInsertSlot()
	if err != nil {
		return err
	}
	baseRID := r.firstRID + types.RID(slot)

	// Uniqueness (indexes reference base RIDs only, §3.1).
	if winner, installed := s.primary.PutIfAbsent(keySlot, baseRID); !installed {
		if err := s.resolveKeyConflict(t, keySlot, winner, baseRID); err != nil {
			// Neutralize the reserved slot: it stays invisible forever.
			ib.startTime.Store(slot, types.NullSlot)
			ib.pending.Add(-1)
			// A deferred seal may be waiting on this reservation.
			s.maybeEnqueueMerge(r)
			return err
		}
	}

	// Write the record into the table-level tail pages; Start Time publishes
	// it (readers treat the initial ∅ as absent).
	for c, sv := range slots {
		ib.dataPage(c, true).Store(slot, sv)
	}
	ib.baseRID.Store(slot, uint64(baseRID))
	ib.schemaEnc.Store(slot, 0)
	ib.indirection.Store(slot, uint64(baseRID))
	t.NoteWrite()
	ib.startTime.Store(slot, t.ID)
	ib.pending.Add(-1)
	// The base record's Indirection column starts at ⊥ (zero value already).

	for c, sec := range s.secondary {
		if slots[c] != types.NullSlot {
			sec.Add(slots[c], baseRID)
		}
	}
	s.stats.Inserts.Add(1)
	if ib.rids.Used() >= r.n {
		s.maybeEnqueueMerge(r)
	}
	return nil
}

// takeInsertSlot reserves the next base slot, rolling over to a fresh
// insert range when the current one is full. The reservation is announced
// through ib.pending BEFORE the take, so a sealer that observes the block
// full also observes the reservation and defers; all writes after a take go
// to the block the slot was taken from (the range's insertBlock pointer may
// be nil'd by a later seal). The caller must decrement ib.pending after
// publishing (or neutralizing) the slot.
func (s *Store) takeInsertSlot() (*updateRange, *tailBlock, int, error) {
	for {
		r := s.curInsert.Load()
		ib := r.insertBlock.Load()
		if ib != nil {
			ib.pending.Add(1)
			if ib.sealing.Load() {
				ib.pending.Add(-1) // a partial-block seal is quiescing takes
			} else if _, slot, ok := ib.take(); ok {
				return r, ib, slot, nil
			} else {
				ib.pending.Add(-1)
			}
		}
		// Range full (or being force-sealed): roll over to a fresh insert
		// range (§3.2: "if insert range is full, then a new insert range is
		// created").
		s.insertMu.Lock()
		if s.curInsert.Load() == r {
			if _, err := s.addInsertRange(); err != nil {
				s.insertMu.Unlock()
				return nil, nil, 0, err
			}
		}
		s.insertMu.Unlock()
		// Re-kick unconditionally: a seal of r may have deferred on this
		// goroutine's transient reservation, and the deferring worker will
		// not retry on its own.
		s.maybeEnqueueMerge(r)
	}
}

// resolveKeyConflict handles an insert that lost the PutIfAbsent race: if
// the incumbent record is live the insert is a duplicate; if it is
// conclusively dead (aborted insert or committed delete) the key is reusable
// and the index entry is swapped to the new base RID. The incumbent's
// transaction state is sampled BEFORE the existence check: states only move
// forward (active → pre-commit → committed/aborted), so an incumbent that
// commits mid-check is classified as a conflict, never as reusable.
func (s *Store) resolveKeyConflict(t *txn.Txn, keySlot uint64, winner, mine types.RID) error {
	loc, ok := s.locate(winner)
	if !ok {
		return ErrDuplicateKey
	}
	b := loc.rng.loadBase()
	raw := b.startSlot(loc.slot)
	if raw == types.NullSlot && b.v == nil {
		// The winner reserved the slot but has not published its record yet.
		return txn.ErrConflict
	}
	if raw == t.ID {
		return ErrDuplicateKey // own earlier insert in this transaction
	}
	_, _, st := s.resolveSlot(raw, func() uint64 { return b.startSlot(loc.slot) })
	switch st {
	case txn.StatusUncommitted, txn.StatusPreCommitted:
		return txn.ErrConflict
	case txn.StatusAborted:
		// Insert never happened; the key is free.
	case txn.StatusCommitted:
		// Born for sure — reusable only if a committed delete killed it.
		if _, exists := loc.rng.decidingVersion(latestView(t), loc.slot); exists {
			return ErrDuplicateKey
		}
	}
	if !s.primary.Replace(keySlot, winner, mine) {
		return txn.ErrConflict // raced another re-inserter
	}
	return nil
}

// ---------------------------------------------------------------------------
// Update and Delete (§3.1)

// Update modifies the given columns of the record with key. Column indexes
// must not include the key column (key updates are delete+insert).
func (s *Store) Update(t *txn.Txn, key int64, cols []int, vals []types.Value) error {
	if len(cols) != len(vals) || len(cols) == 0 {
		return fmt.Errorf("core: update arity mismatch")
	}
	slots := make([]uint64, len(cols))
	for i, c := range cols {
		if c == s.schema.Key {
			return fmt.Errorf("core: cannot update key column")
		}
		if c < 0 || c >= s.schema.NumCols() {
			return fmt.Errorf("core: column %d out of range", c)
		}
		sv, err := s.encodeValue(c, vals[i])
		if err != nil {
			return err
		}
		slots[i] = sv
	}
	loc, err := s.lookupKey(key)
	if err != nil {
		return err
	}
	return s.writeVersion(t, loc, cols, slots, false)
}

// Delete removes the record with key (an update that implicitly sets every
// data column to ∅, §3.1).
func (s *Store) Delete(t *txn.Txn, key int64) error {
	loc, err := s.lookupKey(key)
	if err != nil {
		return err
	}
	return s.writeVersion(t, loc, nil, nil, true)
}

func (s *Store) lookupKey(key int64) (ridLocation, error) {
	rid, ok := s.primary.Get(types.EncodeInt64(key))
	if !ok {
		return ridLocation{}, ErrNotFound
	}
	loc, ok := s.locate(rid)
	if !ok {
		return ridLocation{}, ErrNotFound
	}
	return loc, nil
}

// writeVersion implements the paper's update procedure: latch the
// Indirection word by CAS, detect write-write conflicts via the latest
// version's Start Time, append the pre-image snapshot record on first update
// of a column, append the new version (cumulative if configured), and
// publish by storing the new tail RID into the Indirection column.
func (s *Store) writeVersion(t *txn.Txn, loc ridLocation, cols []int, slots []uint64, isDelete bool) error {
	r, slot := loc.rng, loc.slot
	word := &r.indirection[slot]

	// Step 1: latch bit via CAS; failure is a write-write conflict (§5.1.1).
	old := atomic.LoadUint64(word)
	if old&types.IndirectionLatchBit != 0 || !atomic.CompareAndSwapUint64(word, old, old|types.IndirectionLatchBit) {
		s.stats.WWConflicts.Add(1)
		return txn.ErrConflict
	}
	release := func() { atomic.StoreUint64(word, old) }
	ind := types.RID(old & types.IndirectionRIDMask)

	// Step 2: the latest version must not belong to a live competing txn.
	// A version compacted into history is resolved, so it never conflicts
	// (∅ resolves as aborted). The block list is loaded before histUpto, as
	// in readCols: a list without a compacted block comes with its boundary.
	curStart := types.NullSlot
	if ind == 0 {
		curStart = r.loadBase().startSlot(slot)
	} else if tails := *r.tailBlocks.Load(); uint64(ind) > r.histUpto.Load() {
		curStart = r.tailRecord(tails, ind).startSlot
	}
	if curStart != t.ID {
		if _, _, st := s.resolveSlot(curStart, nil); st == txn.StatusUncommitted || st == txn.StatusPreCommitted {
			release()
			s.stats.WWConflicts.Add(1)
			return txn.ErrConflict
		}
	}

	// The record must exist (visible latest committed or own version).
	view := latestView(t)
	if _, exists := r.decidingVersion(view, slot); !exists {
		release()
		return ErrNotFound
	}

	baseRID := r.firstRID + types.RID(slot)
	prev := ind
	if prev == 0 {
		prev = baseRID
	}

	// Pre-image snapshot records (§3.1 / Lemma 2): the first update of a
	// column captures the original base value so outdated base pages can be
	// discarded safely. Deletes snapshot every not-yet-captured column
	// (footnote 9).
	ever := r.everUpdated[slot].Load()
	var snapBits uint64
	if isDelete {
		for c := 0; c < s.schema.NumCols(); c++ {
			if ever&(1<<uint(c)) == 0 {
				snapBits |= 1 << uint(c)
			}
		}
	} else {
		for _, c := range cols {
			if ever&(1<<uint(c)) == 0 {
				snapBits |= 1 << uint(c)
			}
		}
	}
	if snapBits != 0 {
		snapVals := make(map[int]uint64)
		b := r.loadBase()
		for c := 0; c < s.schema.NumCols(); c++ {
			if snapBits&(1<<uint(c)) != 0 {
				snapVals[c] = b.value(slot, c)
			}
		}
		// The snapshot's Start Time is the preserved version's start time:
		// the base record's original install time (resolve first so the
		// slot never outlives its transaction entry).
		snapStart := curBaseStart(s, r, slot, t)
		snapRID, err := r.appendTail(s, prev, snapBits|types.SchemaSnapshotFlag, snapStart, baseRID, snapVals, t)
		if err != nil {
			release()
			return err
		}
		prev = snapRID
	}

	// New version record.
	var enc uint64
	newVals := make(map[int]uint64, len(cols))
	if isDelete {
		enc = types.SchemaDeleteFlag
	} else {
		for i, c := range cols {
			enc |= 1 << uint(c)
			newVals[c] = slots[i]
		}
		if s.cfg.CumulativeUpdates && ever != 0 {
			// Carry forward previously updated columns (§3.1) so the latest
			// version stays at most 2 hops away. Carried values come from
			// the latest visible version.
			carry := make([]int, 0, 8)
			for c := 0; c < s.schema.NumCols(); c++ {
				if ever&(1<<uint(c)) != 0 && enc&(1<<uint(c)) == 0 {
					carry = append(carry, c)
				}
			}
			if len(carry) > 0 {
				tmp := make([]uint64, len(carry))
				if res := r.readCols(view, slot, carry, tmp); res.exists {
					for i, c := range carry {
						enc |= 1 << uint(c)
						newVals[c] = tmp[i]
					}
				}
			}
		}
	}
	t.NoteWrite()
	newRID, err := r.appendTail(s, prev, enc, t.ID, baseRID, newVals, t)
	if err != nil {
		release()
		return err
	}

	// Bookkeeping before publication so committed readers observe it.
	if isDelete {
		r.markEverUpdated(slot, 1<<uint(s.schema.NumCols())-1)
	} else {
		var bits uint64
		for _, c := range cols {
			bits |= 1 << uint(c)
		}
		r.markEverUpdated(slot, bits)
	}

	// Step 3: publish — in-place update of the Indirection column, which
	// also releases the latch bit.
	atomic.StoreUint64(word, uint64(newRID))

	// Affected secondary indexes gain the new value, still pointing at the
	// base RID (§3.1). The old value's entry stays, stale, and a value that
	// returns adds its pair again; probes re-check and collapse both.
	if !isDelete {
		for i, c := range cols {
			if sec, ok := s.secondary[c]; ok && slots[i] != types.NullSlot {
				sec.Add(slots[i], baseRID)
			}
		}
	}

	if isDelete {
		s.stats.Deletes.Add(1)
	} else {
		s.stats.Updates.Add(1)
	}
	s.maybeEnqueueMerge(r)
	return nil
}

// curBaseStart resolves the base record's start time for pre-image records:
// committed inserts yield the commit time; an own-transaction insert keeps
// the transaction ID (it resolves at commit).
func curBaseStart(s *Store, r *updateRange, slot int, t *txn.Txn) uint64 {
	b := r.loadBase()
	raw := b.startSlot(slot)
	if raw == t.ID {
		t.NoteWrite()
		return raw
	}
	if _, ts, st := s.resolveSlot(raw, func() uint64 { return b.startSlot(slot) }); st == txn.StatusCommitted {
		return ts
	}
	return raw
}

// appendTail reserves the next tail slot for the range and writes one tail
// record. The backward pointer is stored last: it publishes the record. A
// new block joins the block list before any of its RIDs is handed out, so
// the list a reader loads after an indirection word covers that word's
// whole chain.
func (r *updateRange) appendTail(s *Store, back types.RID, enc uint64, start uint64, baseRID types.RID, vals map[int]uint64, t *txn.Txn) (types.RID, error) {
	var b *tailBlock
	var newRID types.RID
	var slot int
	for {
		r.tmu.Lock()
		b = r.cur
		if b == nil {
			prev := *r.tailBlocks.Load()
			first, err := r.span.BlockFirst(len(prev))
			if err != nil {
				r.tmu.Unlock()
				return 0, err
			}
			nb := newTailBlock(first, s.cfg.TailBlockSize, s.schema.NumCols(), false)
			blocks := append(append([]*tailBlock{}, prev...), nb)
			r.tailBlocks.Store(&blocks)
			r.cur = nb
			b = nb
		}
		r.tmu.Unlock()
		var ok bool
		newRID, slot, ok = b.take()
		if ok {
			break
		}
		r.tmu.Lock()
		if r.cur == b {
			r.cur = nil // force rollover
		}
		r.tmu.Unlock()
	}
	for c, v := range vals {
		b.dataPage(c, true).Store(slot, v)
	}
	b.schemaEnc.Store(slot, enc)
	b.startTime.Store(slot, start)
	b.baseRID.Store(slot, uint64(baseRID))
	b.indirection.Store(slot, uint64(back)) // publish
	r.appended.Add(1)
	s.stats.TailRecords.Add(1)
	return newRID, nil
}

// ---------------------------------------------------------------------------
// Point reads

// Get returns the requested columns of the record with key under the
// transaction's isolation level: read-committed sees the latest committed
// (or own) version; snapshot and serializable see the version as of the
// transaction's begin time. Serializable reads register validation checks.
func (s *Store) Get(t *txn.Txn, key int64, cols []int) ([]types.Value, bool, error) {
	return s.get(t, key, cols, false)
}

// GetSpeculative is Get under speculative-read semantics (§5.1.1): it may
// observe pre-committed versions, and always registers a validator.
func (s *Store) GetSpeculative(t *txn.Txn, key int64, cols []int) ([]types.Value, bool, error) {
	return s.get(t, key, cols, true)
}

func (s *Store) get(t *txn.Txn, key int64, cols []int, speculative bool) ([]types.Value, bool, error) {
	loc, err := s.lookupKey(key)
	if err == ErrNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var view readView
	switch t.Level {
	case txn.ReadCommitted:
		view = latestView(t)
	default:
		view = asOfView(t.Begin)
		view.selfID = t.ID
	}
	if speculative {
		view = latestView(t)
		view.speculative = true
	}
	out := make([]uint64, len(cols))
	res := loc.rng.readCols(view, loc.slot, cols, out)
	s.stats.PointReads.Add(1)
	if !res.exists {
		return nil, false, nil
	}
	// Read validation (§5.1.1): under serializable (or any speculative
	// read), the committed visible version as of the commit time must match
	// what we observed.
	if t.Level == txn.Serializable || speculative {
		r, slot, observed := loc.rng, loc.slot, res.decidingRID
		t.AddValidator(func(ct types.Timestamp) bool {
			cur, exists := r.decidingVersion(asOfView(ct-1), slot)
			return exists && cur == observed
		})
	}
	vals := make([]types.Value, len(cols))
	for i, c := range cols {
		vals[i] = s.decodeValue(c, out[i])
	}
	return vals, true, nil
}

// GetAt is a time-travel point read: the record's state as of ts.
func (s *Store) GetAt(ts types.Timestamp, key int64, cols []int) ([]types.Value, bool, error) {
	loc, err := s.lookupKey(key)
	if err == ErrNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	out := make([]uint64, len(cols))
	res := loc.rng.readCols(asOfView(ts), loc.slot, cols, out)
	if !res.exists {
		return nil, false, nil
	}
	vals := make([]types.Value, len(cols))
	for i, c := range cols {
		vals[i] = s.decodeValue(c, out[i])
	}
	return vals, true, nil
}

// Scans and secondary-index lookups live in scan.go: ScanSum, ScanSumRIDs,
// ScanRange, and LookupSecondary all delegate to the shared columnar scan
// engine (rangeScanner / probeSlot) rather than carrying inline fast paths.

// NumRecords returns the number of base record slots allocated (including
// deleted and aborted ones; introspection).
func (s *Store) NumRecords() int {
	n := 0
	for i := 0; i < s.rangeCount(); i++ {
		n += s.rangeAt(i).rowCount()
	}
	return n
}
