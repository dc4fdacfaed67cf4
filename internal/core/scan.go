package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"lstore/internal/page"
	"lstore/internal/types"
)

// This file is the table's one columnar batch-read subsystem: every
// analytical read path — ScanSum/ScanSumRIDs, ScanRange, ScanFiltered,
// ScanAggregate, and the probe side of LookupSecondary/ProbeFiltered —
// funnels through it instead of growing its own inline fast path (§4.2's TPS
// interpretation and §6.1's "SUM over a continuously updated column" are the
// shapes it serves).
//
// The engine has two faces:
//
//   - rangeScanner: the bulk face. For a sealed range it decodes the needed
//     column pages and the Start/Last Updated meta pages once into pooled
//     scratch buffers (one sequential decompression instead of per-slot
//     point access), classifies slots word-at-a-time against the packed
//     ever-updated bitmap (64 clean slots per load), and walks the readCols
//     chain only for slots with unmerged lineage.
//
//   - probeSlot: the point face. Secondary-index probes hit scattered slots,
//     so bulk decode would not amortize; the probe applies the same
//     classification per slot against the compressed pages directly.
//
// Predicate pushdown (the query layer's plans compile onto these hooks):
// a scan may carry []Pred — slot-window tests evaluated VECTORIZED over the
// decoded column pages, one filter bitmap per 64-slot word, before any row
// materialization. A word whose filter bitmap is empty and whose updated
// bitmap is empty is skipped outright: selective scans touch no per-row
// state at all for most of the table. Chain-walk slots re-evaluate the
// predicates against the walk's output (the decoded page value may be stale
// for them).
//
// Scans optionally fan independent ranges out across a worker pool
// (Config.ScanWorkers): aggregates merge per-worker partials after the pool
// drains, and callback scans stage each range's rows so delivery order is
// exactly the sequential order.

// ---------------------------------------------------------------------------
// Predicates (pushdown) and aggregate kernels

// Pred is one pushed-down predicate over slot-encoded values of a scan
// column. Idx is the position of the predicate's column inside the scan's
// cols slice (NOT a schema column index). The test is an inclusive window
// over the slot encoding — Int64 slots are order-preserving, so every
// comparison (=, <, <=, >, >=, BETWEEN) normalizes to a window; equality on
// dictionary codes is the degenerate window Lo == Hi.
//
// Invariant: Lo <= Hi (the planner guarantees it; Matches relies on the
// single unsigned compare v-Lo <= Hi-Lo).
//
// Negate inverts the window with null exclusion: the predicate matches
// values OUTSIDE [Lo, Hi] that are not ∅ (the shape of != and IS NOT NULL).
// Non-negated windows exclude ∅ implicitly whenever Hi < NullSlot; the
// window [NullSlot, NullSlot] is IS NULL.
type Pred struct {
	Idx    int
	Lo, Hi uint64
	Negate bool
}

// Matches evaluates the predicate against one slot value.
func (p Pred) Matches(v uint64) bool {
	in := v-p.Lo <= p.Hi-p.Lo
	if p.Negate {
		return !in && v != types.NullSlot
	}
	return in
}

// AggOp enumerates the engine's aggregate kernels.
type AggOp uint8

const (
	// AggCount counts matching rows (not non-null values).
	AggCount AggOp = iota
	// AggSum sums the non-null Int64 values of a column.
	AggSum
	// AggMin tracks the minimum non-null slot of a column (order-preserving
	// Int64 encoding; meaningless for dictionary codes — the API layer
	// restricts Min/Max to Int64 columns).
	AggMin
	// AggMax tracks the maximum non-null slot of a column.
	AggMax
)

// AggSpec is one requested aggregate: the kernel and the position of its
// column inside the scan's cols slice (ignored by AggCount).
type AggSpec struct {
	Op  AggOp
	Idx int
}

// AggState is one aggregate's running (and mergeable) state. Count is the
// number of contributing rows: matched rows for AggCount, non-null values
// for the other kernels. Merging states is exact integer arithmetic, so
// parallel scans produce bit-identical results for every worker schedule.
type AggState struct {
	Sum     int64
	Count   int64
	MinSlot uint64
	MaxSlot uint64
	Seen    bool // a non-null value reached MinSlot/MaxSlot
}

// foldAgg folds one emitted row into the aggregate states.
func foldAgg(states []AggState, specs []AggSpec, vals []uint64) {
	for i := range specs {
		st := &states[i]
		switch specs[i].Op {
		case AggCount:
			st.Count++
		case AggSum:
			if v := vals[specs[i].Idx]; v != types.NullSlot {
				st.Sum += types.DecodeInt64(v)
				st.Count++
			}
		case AggMin:
			if v := vals[specs[i].Idx]; v != types.NullSlot {
				st.Count++
				if !st.Seen || v < st.MinSlot {
					st.MinSlot = v
				}
				st.Seen = true
			}
		case AggMax:
			if v := vals[specs[i].Idx]; v != types.NullSlot {
				st.Count++
				if !st.Seen || v > st.MaxSlot {
					st.MaxSlot = v
				}
				st.Seen = true
			}
		}
	}
}

// FoldAgg folds one materialized row into states — the query layer uses it
// to aggregate over index-probe plans, which deliver rows through
// ProbeFiltered instead of ScanAggregate.
func FoldAgg(states []AggState, specs []AggSpec, vals []uint64) { foldAgg(states, specs, vals) }

// mergeAggStates folds src (one worker's partials) into dst.
func mergeAggStates(dst, src []AggState) {
	for i := range dst {
		dst[i].Sum += src[i].Sum
		dst[i].Count += src[i].Count
		if src[i].Seen {
			if !dst[i].Seen || src[i].MinSlot < dst[i].MinSlot {
				dst[i].MinSlot = src[i].MinSlot
			}
			if !dst[i].Seen || src[i].MaxSlot > dst[i].MaxSlot {
				dst[i].MaxSlot = src[i].MaxSlot
			}
			dst[i].Seen = true
		}
	}
}

// ---------------------------------------------------------------------------
// Pooled scratch

// scanScratch holds one scanner's decode buffers. Scratch cycles through a
// sync.Pool so steady-state scans allocate nothing regardless of range count
// or column count.
type scanScratch struct {
	data  [][]uint64    // decoded data page per requested column
	cvs   []*colVersion // captured column versions (immutable snapshots)
	pgs   []page.Reader // pinned concrete pages of cvs (one pin per range scan)
	start []uint64      // decoded Start Time meta page
	last  []uint64      // decoded Last Updated Time meta page
	out   []uint64      // readCols fallback output
	vals  []uint64      // per-slot staging row handed to emit
	rids  []types.RID   // secondary-index probe buffer

	// cp holds one compiled predicate per pushed Pred for the encoded scan
	// path: predicate windows translate into each page's code space once per
	// range and filter bitmaps compute WITHOUT decoding (see scanRange).
	cp []page.CompiledPred
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// rowBatch stages one range's emitted rows for the ordered parallel
// filtered-scan pipeline (flat, stride = len(cols)).
type rowBatch struct{ rows []uint64 }

var rowBatchPool = sync.Pool{New: func() any { return new(rowBatch) }}

// ---------------------------------------------------------------------------
// rangeScanner: the bulk face

// gatherCols captures the requested columns' base versions from v into cvs
// and returns their TPS extrema. Both engine faces read versions through
// this so the tps checks and the page reads always use the same snapshots.
func gatherCols(v *rangeVersion, cols []int, cvs []*colVersion) (minTPS, maxTPS types.RID) {
	minTPS = ^types.RID(0)
	if len(cols) == 0 {
		// Existence-only reads (a bare COUNT): no column lineage can vouch
		// for merged state, so return a maxTPS no real mv.tps reaches —
		// every merged-fast-path gate (mv.tps >= maxTPS) then fails and
		// updated slots take the chain walk, the only place an unmerged
		// delete tombstone is discoverable.
		return minTPS, ^types.RID(0)
	}
	for i, c := range cols {
		cv := &v.cols[c]
		cvs[i] = cv
		if cv.tps < minTPS {
			minTPS = cv.tps
		}
		if cv.tps > maxTPS {
			maxTPS = cv.tps
		}
	}
	return minTPS, maxTPS
}

// mergedCurrent is the engine's ONE merged-visibility predicate: it reports
// whether an updated slot's merged base-page state is exactly its state at
// ts — base record visible (raw, the slot's resolved Start Time), the whole
// version chain consolidated into every requested column (Indirection at or
// below minTPS), and the newest consolidated change committed at or before
// the snapshot (lu, the slot's Last Updated Time). deleted reports a merged
// delete tombstone. raw, lu and minTPS must come from v, and v must satisfy
// v.meta.tps >= maxTPS, or lu may not cover everything the column TPS claims
// (§4.2's TPS interpretation + the Last Updated Time column's purpose).
func (r *updateRange) mergedCurrent(v *rangeVersion, ts types.Timestamp, slot int, raw, lu uint64, minTPS types.RID) (serve, deleted bool) {
	if raw == types.NullSlot || raw > ts {
		return false, false
	}
	if ind := r.loadIndirection(slot); ind == 0 || ind > minTPS {
		return false, false
	}
	if lu == types.NullSlot || lu > ts {
		return false, false
	}
	return true, v.mergedDeleted(slot)
}

// rangeScanner streams the visible records of ranges under one snapshot
// view, optionally applying pushed-down predicates before emitting. A
// scanner is single-goroutine; parallel scans give each worker its own.
// fast/slow count slots served from decoded pages vs the chain walk
// (flushed into the store gauges by finish).
type rangeScanner struct {
	s     *Store
	ts    types.Timestamp
	view  readView
	cols  []int
	preds []Pred
	sc    *scanScratch
	fast  int64
	slow  int64
	// Encoded-path word gauges: words whose column data was materialized vs
	// words rejected straight from the encoded filter with zero decode.
	wordsDec  int64
	wordsSkip int64
}

func newRangeScanner(s *Store, ts types.Timestamp, cols []int, preds []Pred) rangeScanner {
	rs := rangeScanner{
		s:     s,
		ts:    ts,
		view:  asOfView(ts),
		cols:  cols,
		preds: preds,
		sc:    scanScratchPool.Get().(*scanScratch),
	}
	n := len(cols)
	sc := rs.sc
	if cap(sc.data) < n {
		sc.data = make([][]uint64, n)
	}
	sc.data = sc.data[:n]
	if cap(sc.cvs) < n {
		sc.cvs = make([]*colVersion, n)
	}
	sc.cvs = sc.cvs[:n]
	if cap(sc.pgs) < n {
		sc.pgs = make([]page.Reader, n)
	}
	sc.pgs = sc.pgs[:n]
	if cap(sc.out) < n {
		sc.out = make([]uint64, n)
	}
	sc.out = sc.out[:n]
	if cap(sc.vals) < n {
		sc.vals = make([]uint64, n)
	}
	sc.vals = sc.vals[:n]
	np := len(preds)
	if cap(sc.cp) < np {
		sc.cp = make([]page.CompiledPred, np)
	}
	sc.cp = sc.cp[:np]
	return rs
}

// finish flushes the slot gauges and returns the scratch to the pool.
func (rs *rangeScanner) finish() {
	if rs.fast != 0 {
		rs.s.stats.ScanFastSlots.Add(uint64(rs.fast))
	}
	if rs.slow != 0 {
		rs.s.stats.ScanSlowSlots.Add(uint64(rs.slow))
	}
	if rs.wordsDec != 0 {
		rs.s.stats.ScanWordsDecoded.Add(uint64(rs.wordsDec))
	}
	if rs.wordsSkip != 0 {
		rs.s.stats.ScanWordsSkipped.Add(uint64(rs.wordsSkip))
	}
	for i := range rs.sc.cvs {
		rs.sc.cvs[i] = nil // do not hold page versions across pool reuse
	}
	for i := range rs.sc.pgs {
		rs.sc.pgs[i] = nil
	}
	for i := range rs.sc.cp {
		rs.sc.cp[i].Reset() // compiled preds hold page references too
	}
	scanScratchPool.Put(rs.sc)
	rs.sc = nil
}

// predsMatch scalar-evaluates every predicate against one materialized row
// (chain-walk results and unsealed-range rows, where no decoded page backs
// the value).
func (rs *rangeScanner) predsMatch(vals []uint64) bool {
	for i := range rs.preds {
		if !rs.preds[i].Matches(vals[rs.preds[i].Idx]) {
			return false
		}
	}
	return true
}

// scanRange streams every record of r visible as of rs.ts whose slot lies in
// [slot0, nRows) and matches every pushed predicate, in slot order. emit
// receives the slot and the slot-encoded values of rs.cols (the slice is
// reused; copy to retain) and returns false to stop the whole scan.
// scanRange reports whether the scan ran to completion.
func (rs *rangeScanner) scanRange(r *updateRange, slot0, nRows int, emit func(slot int, vals []uint64) bool) bool {
	sc := rs.sc
	b := r.loadBase()
	if b.v == nil {
		return rs.scanUnsealed(r, b, slot0, nRows, emit)
	}
	mv := &b.v.meta
	minTPS, maxTPS := gatherCols(b.v, rs.cols, sc.cvs)

	// Pin every page this window reads, once per range: the pins keep the
	// concrete encoded readers resident through the whole predicate/decode
	// window (the buffer pool cannot evict mid-scan), and the Bind /
	// DecodeWordInto fast paths below need the real page representations,
	// not handles.
	startPg := mv.startTime.MustPin()
	lastPg := mv.lastUpdated.MustPin()
	for i := range rs.cols {
		sc.pgs[i] = sc.cvs[i].data.MustPin()
	}
	defer func() {
		for i := range rs.cols {
			sc.cvs[i].data.Unpin()
		}
		mv.lastUpdated.Unpin()
		mv.startTime.Unpin()
	}()

	// The merged fast path for updated slots relies on Last Updated Time
	// covering every record any requested column's TPS claims (true unless
	// an independent column merge ran ahead of the last full merge; never
	// true for zero requested columns, whose gatherCols maxTPS is the
	// unreachable sentinel).
	luValid := mv.tps >= maxTPS
	ts := rs.ts
	vals := sc.vals
	filtered := len(rs.preds) > 0

	// Sealed range:
	//
	//   - Filtered scans read the encoded pages: bind each predicate window
	//     to its column page's OWN representation once (code space for
	//     FOR-packed and dictionary pages, run granularity for RLE), compute
	//     each 64-slot filter bitmap straight off the encoded data, and decode
	//     ONLY the words something survives in. Selective scans leave most of
	//     the page compressed.
	//
	//   - Unfiltered scans bulk-decode: expand the column pages and the
	//     Start/Last Updated meta pages once up front (sequential
	//     decompression, not per-slot point access).
	if filtered {
		for pi := range rs.preds {
			p := &rs.preds[pi]
			sc.cp[pi].Bind(sc.pgs[p.Idx], p.Lo, p.Hi, p.Negate)
		}
		for i := range rs.cols {
			sc.data[i] = growSlots(sc.data[i], nRows)
		}
		sc.start = growSlots(sc.start, nRows)
		sc.last = growSlots(sc.last, nRows)
	} else {
		for i := range rs.cols {
			sc.data[i] = decodeInto(sc.data[i][:0], sc.pgs[i])
		}
		sc.start = decodeInto(sc.start[:0], startPg)
		sc.last = decodeInto(sc.last[:0], lastPg)
	}

	for wi := slot0 >> 6; wi<<6 < nRows; wi++ {
		lo, hi := wi<<6, (wi+1)<<6
		if lo < slot0 {
			lo = slot0
		}
		if hi > nRows {
			hi = nRows
		}
		word := r.updatedBits[wi].Load()
		fb := ^uint64(0)
		if filtered {
			for pi := range sc.cp {
				if fb &= sc.cp[pi].FilterWord(lo, hi); fb == 0 {
					break
				}
			}
			if fb == 0 && word == 0 {
				rs.wordsSkip++ // 64 slots rejected without decoding one
				continue
			}
			// Something in this word survives: materialize exactly what the
			// paths below read. Start Time always (visibility); column words
			// only when the filter lets a page-served slot through; Last
			// Updated only when updated slots can take the merged fast path.
			page.DecodeWordInto(sc.start[lo:], startPg, lo, hi-lo)
			if fb != 0 {
				for i := range rs.cols {
					page.DecodeWordInto(sc.data[i][lo:], sc.pgs[i], lo, hi-lo)
				}
				rs.wordsDec++
			}
			if word != 0 && luValid {
				page.DecodeWordInto(sc.last[lo:], lastPg, lo, hi-lo)
			}
		}
		if word == 0 {
			// 64 never-updated slots: serve straight from the decoded pages.
			for slot := lo; slot < hi; slot++ {
				if fb&(1<<uint(slot&63)) == 0 {
					continue
				}
				raw := sc.start[slot]
				if raw == types.NullSlot || raw > ts {
					continue // absent, aborted, or inserted after ts
				}
				for i := range vals {
					vals[i] = sc.data[i][slot]
				}
				rs.fast++
				if !emit(slot, vals) {
					return false
				}
			}
			continue
		}
		for slot := lo; slot < hi; slot++ {
			bit := uint64(1) << uint(slot&63)
			if word&bit == 0 {
				if fb&bit == 0 {
					continue
				}
				raw := sc.start[slot]
				if raw == types.NullSlot || raw > ts {
					continue
				}
				for i := range vals {
					vals[i] = sc.data[i][slot]
				}
				rs.fast++
				if !emit(slot, vals) {
					return false
				}
				continue
			}
			// Updated record, but fully merged into every requested column
			// and last changed at or before the snapshot: the merged page
			// values ARE the values at ts, so the filter bitmap decides.
			if luValid {
				if serve, deleted := r.mergedCurrent(b.v, ts, slot, sc.start[slot], sc.last[slot], minTPS); serve {
					if deleted || fb&bit == 0 {
						continue
					}
					for i := range vals {
						vals[i] = sc.data[i][slot]
					}
					rs.fast++
					if !emit(slot, vals) {
						return false
					}
					continue
				}
			}
			// Unmerged lineage: the chain walk decides, and the predicates
			// re-evaluate against the walk's output (the page value may be
			// stale for this slot).
			rs.slow++
			res := r.walkSlot(rs.view, b, slot, rs.cols, sc.out)
			if !res.exists {
				continue
			}
			if filtered && !rs.predsMatch(sc.out) {
				continue
			}
			copy(vals, sc.out)
			if !emit(slot, vals) {
				return false
			}
		}
	}
	return true
}

// scanUnsealed handles insert ranges: base values still live in b's
// table-level tail pages and visibility may need transaction resolution, so
// clean slots read the pages point-wise, predicates evaluate scalar-wise on
// the materialized row, and everything unresolved falls back to the chain
// walk.
func (rs *rangeScanner) scanUnsealed(r *updateRange, b baseView, slot0, nRows int, emit func(slot int, vals []uint64) bool) bool {
	sc := rs.sc
	ts := rs.ts
	vals := sc.vals
	filtered := len(rs.preds) > 0
	for wi := slot0 >> 6; wi<<6 < nRows; wi++ {
		lo, hi := wi<<6, (wi+1)<<6
		if lo < slot0 {
			lo = slot0
		}
		if hi > nRows {
			hi = nRows
		}
		word := r.updatedBits[wi].Load()
		for slot := lo; slot < hi; slot++ {
			if word&(1<<uint(slot&63)) == 0 {
				raw := b.startSlot(slot)
				if raw == types.NullSlot {
					continue
				}
				if !types.IsTxnID(raw) {
					if raw > ts {
						continue
					}
					for i, c := range rs.cols {
						vals[i] = b.value(slot, c)
					}
					if filtered && !rs.predsMatch(vals) {
						continue
					}
					rs.fast++
					if !emit(slot, vals) {
						return false
					}
					continue
				}
				// Unresolved insert: fall through to the chain walk.
			}
			rs.slow++
			res := r.walkSlot(rs.view, b, slot, rs.cols, sc.out)
			if !res.exists {
				continue
			}
			if filtered && !rs.predsMatch(sc.out) {
				continue
			}
			copy(vals, sc.out)
			if !emit(slot, vals) {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// probeSlot: the point face

// probeSlot resolves cols of one base slot as of ts without bulk decode —
// the shape of secondary-index probes, whose scattered slots would not
// amortize a page decompression. Classification mirrors rangeScanner:
// never-updated slots read base pages directly, fully merged slots whose
// lineage pre-dates the snapshot read the merged pages, everything else
// walks the readCols chain. cvs is caller scratch (len(cols)); fast reports
// which side served the probe.
func (s *Store) probeSlot(ts types.Timestamp, r *updateRange, slot int, cols []int, out []uint64, cvs []*colVersion) (exists, fast bool) {
	b := r.loadBase()
	if r.updatedBits[slot>>6].Load()&(1<<uint(slot&63)) == 0 {
		raw := b.startSlot(slot)
		if raw == types.NullSlot {
			return false, true // aborted insert or never-written slot
		}
		if !types.IsTxnID(raw) {
			if raw > ts {
				return false, true
			}
			for i, c := range cols {
				out[i] = b.value(slot, c)
			}
			return true, true
		}
		// Unresolved insert: chain walk below.
	} else if v := b.v; v != nil {
		if minTPS, maxTPS := gatherCols(v, cols, cvs); v.meta.tps >= maxTPS {
			serve, deleted := r.mergedCurrent(v, ts, slot, v.meta.startTime.Get(slot), v.meta.lastUpdated.Get(slot), minTPS)
			if serve {
				if deleted {
					return false, true
				}
				for i := range cols {
					out[i] = cvs[i].data.Get(slot)
				}
				return true, true
			}
		}
	}
	res := r.walkSlot(asOfView(ts), b, slot, cols, out)
	return res.exists, false
}

// ---------------------------------------------------------------------------
// Scan planning and the worker pool

// scanTarget is one range's slice of a RID-bounded scan: slots
// [slot0, nRows) of r intersect the requested RID window.
type scanTarget struct {
	r     *updateRange
	slot0 int
	nRows int
}

// scanTargets clamps [loRID, hiRID) onto the table's ranges, computing each
// intersecting range's slot window up front instead of testing every slot's
// RID inside the hot loop.
func (s *Store) scanTargets(loRID, hiRID types.RID) []scanTarget {
	nRanges := s.rangeCount()
	targets := make([]scanTarget, 0, nRanges)
	for ri := 0; ri < nRanges; ri++ {
		r := s.rangeAt(ri)
		if r.firstRID+types.RID(r.n) <= loRID || r.firstRID >= hiRID {
			continue
		}
		nRows := r.rowCount()
		if hiRID < r.firstRID+types.RID(nRows) {
			nRows = int(hiRID - r.firstRID)
		}
		slot0 := 0
		if loRID > r.firstRID {
			slot0 = int(loRID - r.firstRID)
		}
		if slot0 >= nRows {
			continue
		}
		targets = append(targets, scanTarget{r: r, slot0: slot0, nRows: nRows})
	}
	return targets
}

// scanWorkersFor bounds the per-scan pool: never more workers than the
// configured pool or than ranges to scan.
func (s *Store) scanWorkersFor(nTargets int) int {
	w := s.cfg.ScanWorkers
	if w > nTargets {
		w = nTargets
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ---------------------------------------------------------------------------
// Public scans (analytical reads, snapshot isolation)

// ScanSum computes SUM(col) over live records as of ts — the benchmark scan
// of §6.1 ("SUM aggregation on a column that is continuously updated").
// It returns the sum and the number of contributing records.
func (s *Store) ScanSum(ts types.Timestamp, col int) (sum int64, rows int64) {
	return s.ScanSumRIDs(ts, col, 0, ^types.RID(0))
}

// ScanSumRIDs is ScanSum over base RIDs in [loRID, hiRID) — the harness's
// "scan 10% of the table" shape. It is a thin wrapper over the AggSum
// kernel of ScanAggregate.
func (s *Store) ScanSumRIDs(ts types.Timestamp, col int, loRID, hiRID types.RID) (sum int64, rows int64) {
	states := s.ScanAggregate(ts, []int{col}, nil, []AggSpec{{Op: AggSum, Idx: 0}}, loRID, hiRID)
	return states[0].Sum, states[0].Count
}

// ScanAggregate runs the requested aggregate kernels over the rows visible
// as of ts whose base RIDs fall in [loRID, hiRID) and match every pushed
// predicate. cols names the schema columns the scan materializes; preds and
// specs index positions within cols. Ranges fan out across the scan worker
// pool when Config.ScanWorkers allows; per-worker partials merge with exact
// integer arithmetic after the pool drains, so the result is identical for
// every schedule.
func (s *Store) ScanAggregate(ts types.Timestamp, cols []int, preds []Pred, specs []AggSpec, loRID, hiRID types.RID) []AggState {
	targets := s.scanTargets(loRID, hiRID)
	states := make([]AggState, len(specs))
	if workers := s.scanWorkersFor(len(targets)); workers > 1 {
		s.parallelAggregate(targets, ts, cols, preds, specs, states, workers)
	} else {
		rs := newRangeScanner(s, ts, cols, preds)
		for _, t := range targets {
			rs.scanRange(t.r, t.slot0, t.nRows, func(_ int, vals []uint64) bool {
				foldAgg(states, specs, vals)
				return true
			})
		}
		rs.finish()
	}
	s.stats.Scans.Add(1)
	return states
}

// parallelAggregate fans targets out across workers. Each worker owns a
// scanner (its own pooled scratch) and partial aggregate states; partials
// merge once the pool drains.
func (s *Store) parallelAggregate(targets []scanTarget, ts types.Timestamp, cols []int, preds []Pred, specs []AggSpec, states []AggState, workers int) {
	var next atomic.Int64
	partials := make([][]AggState, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rs := newRangeScanner(s, ts, cols, preds)
			part := make([]AggState, len(specs))
			for {
				i := int(next.Add(1)) - 1
				if i >= len(targets) {
					break
				}
				t := targets[i]
				rs.scanRange(t.r, t.slot0, t.nRows, func(_ int, vals []uint64) bool {
					foldAgg(part, specs, vals)
					return true
				})
			}
			partials[w] = part
			rs.finish()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		mergeAggStates(states, partials[w])
	}
}

// ScanFiltered streams the slot-encoded values of cols for every live record
// (as of ts) whose base RID falls in [loRID, hiRID) and that matches every
// pushed predicate, in RID order; fn returning false stops the scan. The
// vals slice is reused between calls — copy what must be retained. This is
// the bulk face the query layer's filtered plans compile onto: with
// ScanWorkers > 1 predicates evaluate inside the workers (only matching rows
// are staged), but fn still runs only on the calling goroutine and observes
// exactly the sequential row order.
func (s *Store) ScanFiltered(ts types.Timestamp, cols []int, preds []Pred, loRID, hiRID types.RID, fn func(vals []uint64) bool) {
	targets := s.scanTargets(loRID, hiRID)
	// Zero-width rows cannot ride the flat staging buffers (stride 0), so
	// existence-only scans stay sequential.
	if workers := s.scanWorkersFor(len(targets)); workers > 1 && len(cols) > 0 {
		s.parallelFiltered(targets, ts, cols, preds, fn, workers)
	} else {
		rs := newRangeScanner(s, ts, cols, preds)
		for _, t := range targets {
			if !rs.scanRange(t.r, t.slot0, t.nRows, func(_ int, vals []uint64) bool {
				return fn(vals)
			}) {
				break
			}
		}
		rs.finish()
	}
	s.stats.Scans.Add(1)
}

// ScanRange applies fn to the requested columns of every live record (as of
// ts) whose base RID falls in [loRID, hiRID), in RID order; fn returning
// false stops the scan. Pass 0,^0 for a full scan. A thin wrapper over
// ScanFiltered that decodes values and peels off the key column.
func (s *Store) ScanRange(ts types.Timestamp, cols []int, loRID, hiRID types.RID, fn func(key int64, vals []types.Value) bool) {
	readCols := make([]int, 0, len(cols)+1)
	readCols = append(readCols, cols...)
	readCols = append(readCols, s.schema.Key)
	vals := make([]types.Value, len(cols))
	s.ScanFiltered(ts, readCols, nil, loRID, hiRID, func(out []uint64) bool {
		for i, c := range cols {
			vals[i] = s.decodeValue(c, out[i])
		}
		return fn(types.DecodeInt64(out[len(out)-1]), vals)
	})
}

// parallelFiltered scans targets concurrently while preserving sequential
// delivery: workers stage each range's matching rows in a pooled flat buffer
// and the caller's goroutine drains the batches in range order, so fn is
// never called concurrently and sees rows exactly as a sequential scan
// would. Workers acquire a semaphore slot BEFORE claiming a range index, so
// the lowest outstanding range always holds a slot and the in-order drain
// cannot deadlock; at most `workers` staged batches exist at once. A false
// return from fn raises the stop flag — in-flight workers then publish
// empty batches and the drain completes cheaply.
func (s *Store) parallelFiltered(targets []scanTarget, ts types.Timestamp, cols []int, preds []Pred, fn func([]uint64) bool, workers int) {
	stride := len(cols)
	batches := make([]chan *rowBatch, len(targets))
	for i := range batches {
		batches[i] = make(chan *rowBatch, 1)
	}
	sem := make(chan struct{}, workers)
	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := newRangeScanner(s, ts, cols, preds)
			for {
				sem <- struct{}{}
				i := int(next.Add(1)) - 1
				if i >= len(targets) {
					<-sem
					break
				}
				b := rowBatchPool.Get().(*rowBatch)
				b.rows = b.rows[:0]
				if !stopped.Load() {
					t := targets[i]
					rs.scanRange(t.r, t.slot0, t.nRows, func(_ int, out []uint64) bool {
						b.rows = append(b.rows, out...)
						return !stopped.Load()
					})
				}
				batches[i] <- b
			}
			rs.finish()
		}()
	}
	for i := range targets {
		b := <-batches[i]
		<-sem
		rows := b.rows
		for off := 0; off+stride <= len(rows) && !stopped.Load(); off += stride {
			if !fn(rows[off : off+stride]) {
				stopped.Store(true)
			}
		}
		b.rows = rows[:0]
		rowBatchPool.Put(b)
	}
	wg.Wait()
}

// ---------------------------------------------------------------------------
// Index-probe plans (the point face's bulk entry)

// ProbeFiltered resolves a query's index-probe plan: the secondary index on
// schema column col supplies candidate base RIDs for the encoded value sv,
// each candidate resolves through the scan engine's point face, and preds
// re-evaluate against the visible version — the probe predicate itself MUST
// appear in preds, because index entries may be stale (§3.1). cols names
// the materialized schema columns; preds index positions within cols.
// Candidates probe once each in ascending base-RID order, so delivery order
// matches a bulk scan of the same rows. The vals slice handed to fn is reused.
func (s *Store) ProbeFiltered(ts types.Timestamp, col int, sv uint64, cols []int, preds []Pred, fn func(vals []uint64) bool) error {
	sec, ok := s.secondary[col]
	if !ok {
		return fmt.Errorf("%w on column %d", ErrNoIndex, col)
	}
	rs := newRangeScanner(s, ts, cols, preds) // sizes pooled scratch to len(cols)
	sc := rs.sc
	sc.rids = sec.LookupAppend(sc.rids[:0], sv)
	slices.Sort(sc.rids)
	sc.rids = slices.Compact(sc.rids)
	for _, rid := range sc.rids {
		loc, ok := s.locate(rid)
		if !ok {
			continue
		}
		exists, served := s.probeSlot(ts, loc.rng, loc.slot, cols, sc.out, sc.cvs)
		if served {
			rs.fast++
		} else {
			rs.slow++
		}
		if !exists || !rs.predsMatch(sc.out) {
			continue
		}
		if !fn(sc.out) {
			break
		}
	}
	rs.finish()
	return nil
}

// LookupSecondary returns the keys of live records whose column col
// currently has value v (snapshot at ts) — a thin wrapper over the
// ProbeFiltered plan with the equality predicate pushed down (the stale-
// entry re-check §3.1 requires). Keys arrive in ascending base-RID order.
func (s *Store) LookupSecondary(ts types.Timestamp, col int, v types.Value) ([]int64, error) {
	if !s.HasSecondary(col) {
		return nil, fmt.Errorf("%w on column %d", ErrNoIndex, col)
	}
	sv, ok, err := s.LookupSlot(col, v)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil // value cannot appear in any stored slot
	}
	readCols := []int{col, s.schema.Key}
	preds := []Pred{{Idx: 0, Lo: sv, Hi: sv}}
	var keys []int64
	err = s.ProbeFiltered(ts, col, sv, readCols, preds, func(vals []uint64) bool {
		keys = append(keys, types.DecodeInt64(vals[1]))
		return true
	})
	return keys, err
}

// growSlots resizes buf to n slots without decoding anything into it — the
// encoded scan path sizes its scratch up front and fills only surviving words.
func growSlots(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// decodeInto appends the decoded slots of p to buf (bulk decompression for
// the scan fast path); encodings with a native bulk path use it.
func decodeInto(buf []uint64, p page.Reader) []uint64 {
	if bd, ok := p.(page.BulkDecoder); ok {
		return bd.AppendTo(buf)
	}
	n := p.Len()
	if cap(buf)-len(buf) < n {
		grown := make([]uint64, len(buf), len(buf)+n)
		copy(grown, buf)
		buf = grown
	}
	for i := 0; i < n; i++ {
		buf = append(buf, p.Get(i))
	}
	return buf
}
