package core

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lstore/internal/txn"
	"lstore/internal/types"
)

// This file holds the scan-engine oracle: every analytical read path
// (ScanSum, ScanRange, LookupSecondary) must agree with a per-slot readCols
// chain walk at the same snapshot, under concurrent updates and any mix of
// full and per-column merges — extending the lineage invariants held since
// PR 1 to the read side.

// oracleSum is the slow-path reference for ScanSumRIDs: one readCols chain
// walk per slot, no decoded pages, no merged-state shortcuts.
func oracleSum(s *Store, ts types.Timestamp, col int, lo, hi types.RID) (int64, int64) {
	view := asOfView(ts)
	out := make([]uint64, 1)
	cols := []int{col}
	var sum, rows int64
	for ri := 0; ri < s.rangeCount(); ri++ {
		r := s.rangeAt(ri)
		nRows := r.rowCount()
		for slot := 0; slot < nRows; slot++ {
			rid := r.firstRID + types.RID(slot)
			if rid < lo || rid >= hi {
				continue
			}
			res := r.readCols(view, slot, cols, out)
			if res.exists && out[0] != types.NullSlot {
				sum += types.DecodeInt64(out[0])
				rows++
			}
		}
	}
	return sum, rows
}

// oracleRange is the slow-path reference for ScanRange: rows flattened as
// (key, cols...) in RID order.
func oracleRange(s *Store, ts types.Timestamp, cols []int, lo, hi types.RID) []int64 {
	view := asOfView(ts)
	readCols := append(append([]int{}, cols...), s.schema.Key)
	out := make([]uint64, len(readCols))
	var flat []int64
	for ri := 0; ri < s.rangeCount(); ri++ {
		r := s.rangeAt(ri)
		nRows := r.rowCount()
		for slot := 0; slot < nRows; slot++ {
			rid := r.firstRID + types.RID(slot)
			if rid < lo || rid >= hi {
				continue
			}
			res := r.readCols(view, slot, readCols, out)
			if !res.exists {
				continue
			}
			flat = append(flat, types.DecodeInt64(out[len(out)-1]))
			for i := range cols {
				flat = append(flat, int64(out[i]))
			}
		}
	}
	return flat
}

// engineRange collects ScanRange's rows in the oracle's flat shape.
func engineRange(s *Store, ts types.Timestamp, cols []int, lo, hi types.RID) []int64 {
	var flat []int64
	s.ScanRange(ts, cols, lo, hi, func(key int64, vals []types.Value) bool {
		flat = append(flat, key)
		for i, c := range cols {
			flat = append(flat, int64(s.encodeOracle(c, vals[i])))
		}
		return true
	})
	return flat
}

// encodeOracle re-encodes a decoded value for comparison with raw slots.
func (s *Store) encodeOracle(col int, v types.Value) uint64 {
	sv, err := s.encodeValue(col, v)
	if err != nil {
		panic(err)
	}
	return sv
}

// oracleFiltered is the slow-path reference for ScanFiltered: one readCols
// chain walk per slot with the predicates evaluated scalar-wise on the walk
// output, rows flattened in RID order.
func oracleFiltered(s *Store, ts types.Timestamp, cols []int, preds []Pred, lo, hi types.RID) []int64 {
	view := asOfView(ts)
	out := make([]uint64, len(cols))
	var flat []int64
	for ri := 0; ri < s.rangeCount(); ri++ {
		r := s.rangeAt(ri)
		nRows := r.rowCount()
		for slot := 0; slot < nRows; slot++ {
			rid := r.firstRID + types.RID(slot)
			if rid < lo || rid >= hi {
				continue
			}
			res := r.readCols(view, slot, cols, out)
			if !res.exists {
				continue
			}
			match := true
			for _, p := range preds {
				if !p.Matches(out[p.Idx]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			for i := range cols {
				flat = append(flat, int64(out[i]))
			}
		}
	}
	return flat
}

// engineFiltered collects ScanFiltered's raw rows in the oracle's shape.
func engineFiltered(s *Store, ts types.Timestamp, cols []int, preds []Pred, lo, hi types.RID) []int64 {
	var flat []int64
	s.ScanFiltered(ts, cols, preds, lo, hi, func(vals []uint64) bool {
		for _, v := range vals {
			flat = append(flat, int64(v))
		}
		return true
	})
	return flat
}

// oracleAggStates folds oracle-produced flat rows through the same kernels
// the engine uses, so the comparison isolates the scan, not the fold.
func oracleAggStates(flat []int64, stride int, specs []AggSpec) []AggState {
	states := make([]AggState, len(specs))
	vals := make([]uint64, stride)
	for off := 0; off+stride <= len(flat); off += stride {
		for i := 0; i < stride; i++ {
			vals[i] = uint64(flat[off+i])
		}
		foldAgg(states, specs, vals)
	}
	return states
}

// oracleCandidates returns the distinct base RIDs the secondary index on col
// holds for sv (stale entries included), ascending. The index may hold a
// pair more than once — Add appends, and a value can return — but a probe
// visits each record once.
func oracleCandidates(s *Store, col int, sv uint64) []types.RID {
	seen := map[types.RID]bool{}
	var rids []types.RID
	for _, rid := range s.secondary[col].Lookup(sv) {
		if !seen[rid] {
			seen[rid] = true
			rids = append(rids, rid)
		}
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	return rids
}

// oracleProbeFiltered is the slow-path reference for ProbeFiltered: the same
// index candidates, per-slot chain walks, and scalar predicate re-checks,
// flattened in ascending base-RID order.
func oracleProbeFiltered(s *Store, ts types.Timestamp, col int, sv uint64, cols []int, preds []Pred) []int64 {
	view := asOfView(ts)
	out := make([]uint64, len(cols))
	var flat []int64
	for _, rid := range oracleCandidates(s, col, sv) {
		loc, ok := s.locate(rid)
		if !ok {
			continue
		}
		res := loc.rng.readCols(view, loc.slot, cols, out)
		if !res.exists {
			continue
		}
		match := true
		for _, p := range preds {
			if !p.Matches(out[p.Idx]) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		for i := range cols {
			flat = append(flat, int64(out[i]))
		}
	}
	return flat
}

// oracleSecondary is the slow-path reference for LookupSecondary.
func oracleSecondary(s *Store, ts types.Timestamp, col int, sv uint64) []int64 {
	view := asOfView(ts)
	readCols := []int{col, s.schema.Key}
	out := make([]uint64, 2)
	var keys []int64
	for _, rid := range oracleCandidates(s, col, sv) {
		loc, ok := s.locate(rid)
		if !ok {
			continue
		}
		res := loc.rng.readCols(view, loc.slot, readCols, out)
		if res.exists && out[0] == sv {
			keys = append(keys, types.DecodeInt64(out[1]))
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func equalAggStates(a, b []AggState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedCopy(in []int64) []int64 {
	out := append([]int64{}, in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalI64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scanOracleConfig builds a store with small ranges, a secondary index on
// column 2, and the given scan pool size.
func scanOracleConfig(workers int) Config {
	cfg := testConfig() // RangeSize 64, TailBlockSize 16, MergeBatch 8
	cfg.ScanWorkers = workers
	cfg.SecondaryIndexColumns = []int{2}
	return cfg
}

// scanOracleSetup is what a storage variant of runScanOracle may change: the
// store config, and rawData, which loads column 1 so that no codec wins and
// its sealed pages publish raw.
type scanOracleSetup struct {
	cfg     Config
	rawData bool
}

// runScanOracle drives concurrent writers and mergers while the main
// goroutine repeatedly compares every engine path against the readCols
// oracle at a fixed snapshot. Optional mutators select storage variants for
// the same property.
func runScanOracle(t *testing.T, workers, iters int, mut ...func(*scanOracleSetup)) {
	o := scanOracleSetup{cfg: scanOracleConfig(workers)}
	for _, m := range mut {
		m(&o)
	}
	s := newTestStore(t, o.cfg)
	const rows = 300 // 4 sealed ranges of 64 + a live insert range
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < rows; i++ {
			v1 := 10 * i
			if o.rawData && i%2 == 1 {
				// ±(2^62 + i), alternating in sign: the page's span exceeds
				// 2^63, so FOR packing refuses, and every value is distinct,
				// so dictionary and RLE lose. Even rows keep 10*i, so the
				// col-1 predicate window below still selects rows.
				v1 = 1<<62 + i
				if i%4 == 3 {
					v1 = -v1
				}
			}
			insertRow(t, s, tx, i, v1, int64(i%7), 30*i)
		}
	})
	s.ForceMerge() // seal the full ranges so sealed fast paths exist from iter 0
	if o.rawData && s.CompressionStats().PagesRaw == 0 {
		t.Fatal("rawData variant sealed no raw pages")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: random single- and multi-column updates, occasional deletes,
	// fresh-key inserts (insert-range rollover coverage), and deliberate
	// aborts. Every transaction flips the visibility of at most ONE base RID
	// at commit: the oracle-sandwich below relies on flips being per-RID and
	// non-cancelling (a multi-RID flip, e.g. delete+reinsert in one txn, can
	// be observed torn by a scan that reads the two ranges at different
	// moments — inherent to scanning at a ts inside the pre-commit window,
	// not something the engine can repair).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			fresh := seed * 1_000_000
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := s.tm.Begin(txn.ReadCommitted)
				key := r.Int63n(rows)
				var err error
				switch r.Intn(12) {
				case 0:
					err = s.Delete(tx, key)
				case 1:
					// Distinctive column-1 value: no update-flip delta can
					// cancel an insert flip in the sum comparison. Fresh keys
					// are bounded: the oracle walks every row per pass, so
					// unbounded growth compounds (slower passes give writers
					// more wall time) and the -race runs never converge; a
					// few thousand inserts still cover insert-range rollover.
					if fresh < seed*1_000_000+1500 {
						fresh++
						err = s.Insert(tx, []types.Value{
							types.IntValue(fresh), types.IntValue(1_000_000_000 + fresh),
							types.IntValue(int64(r.Intn(7))), types.IntValue(fresh),
						})
					} else {
						err = s.Update(tx, key, []int{1},
							[]types.Value{types.IntValue(int64(i))})
					}
				case 2:
					err = s.Update(tx, key, []int{1, 2},
						[]types.Value{types.IntValue(int64(i)), types.IntValue(int64(r.Intn(7)))})
				default:
					err = s.Update(tx, key, []int{1 + r.Intn(3)},
						[]types.Value{types.IntValue(int64(i))})
				}
				if err != nil || r.Intn(16) == 0 {
					s.tm.Abort(tx)
					continue
				}
				s.tm.Commit(tx)
			}
		}(int64(w) + 1)
	}

	// Merger: full merges and independent per-column merges interleave so
	// scans see every lineage shape (mv.tps ahead of, equal to, and behind
	// individual column TPS values).
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r.Intn(3) == 0 {
				s.ForceMerge()
			} else {
				s.MergeColumn(r.Intn(s.rangeCount()), r.Intn(4))
			}
			time.Sleep(200 * time.Microsecond) // don't monopolize small hosts
		}
	}()

	r := rand.New(rand.NewSource(7))
	cols := []int{1, 2}
	for iter := 0; iter < iters; iter++ {
		if iter%8 == 0 {
			time.Sleep(time.Millisecond) // let writers and merger interleave
		}
		ts := s.tm.Now()
		lo, hi := types.RID(0), ^types.RID(0)
		if iter%2 == 1 { // alternate full scans with clamped RID windows
			a := types.RID(1 + r.Int63n(rows))
			b := types.RID(1 + r.Int63n(rows))
			if a > b {
				a, b = b, a
			}
			lo, hi = a, b+1
		}

		// A transaction in pre-commit can hold a commit time <= ts and flip
		// from invisible to visible mid-iteration; the flip is monotone, so
		// sandwiching the engine between two oracle runs and skipping the
		// (rare) iterations where the oracles disagree keeps the comparison
		// sound without weakening the concurrency.
		sumA, rowsA := oracleSum(s, ts, 1, lo, hi)
		gotSum, gotRows := s.ScanSumRIDs(ts, 1, lo, hi)
		sumB, rowsB := oracleSum(s, ts, 1, lo, hi)
		if sumA == sumB && rowsA == rowsB && (gotSum != sumA || gotRows != rowsA) {
			t.Fatalf("iter %d: ScanSumRIDs(%d,%d)=(%d,%d), oracle (%d,%d)",
				iter, lo, hi, gotSum, gotRows, sumA, rowsA)
		}

		wantA := oracleRange(s, ts, cols, lo, hi)
		got := engineRange(s, ts, cols, lo, hi)
		wantB := oracleRange(s, ts, cols, lo, hi)
		if equalI64(wantA, wantB) && !equalI64(got, wantA) {
			t.Fatalf("iter %d: ScanRange(%d,%d) rows diverge: got %d values, want %d",
				iter, lo, hi, len(got), len(wantA))
		}

		sv := types.EncodeInt64(int64(r.Intn(7)))
		keysA := oracleSecondary(s, ts, 2, sv)
		gotKeys, err := s.LookupSecondary(ts, 2, types.IntValue(types.DecodeInt64(sv)))
		if err != nil {
			t.Fatal(err)
		}
		keysB := oracleSecondary(s, ts, 2, sv)
		if equalI64(keysA, keysB) && !equalI64(sortedCopy(gotKeys), keysA) {
			t.Fatalf("iter %d: LookupSecondary diverges: got %v want %v",
				iter, sortedCopy(gotKeys), keysA)
		}

		// Predicate pushdown: a window on col 1 plus an equality/negation on
		// col 2, through the filtered bulk face and the aggregate kernels.
		// (Every 4th iteration: each comparison costs two full oracle walks.)
		if iter%4 != 0 {
			continue
		}
		fcols := []int{1, 2, s.schema.Key}
		k := int64(r.Intn(7))
		fpreds := []Pred{
			{Idx: 0, Lo: types.EncodeInt64(0), Hi: types.EncodeInt64(int64(200 + r.Intn(3000)))},
			{Idx: 1, Lo: types.EncodeInt64(k), Hi: types.EncodeInt64(k), Negate: iter%3 == 0},
		}
		specs := []AggSpec{{Op: AggSum, Idx: 0}, {Op: AggCount}, {Op: AggMin, Idx: 0}, {Op: AggMax, Idx: 2}}
		fA := oracleFiltered(s, ts, fcols, fpreds, lo, hi)
		fGot := engineFiltered(s, ts, fcols, fpreds, lo, hi)
		gotStates := s.ScanAggregate(ts, fcols, fpreds, specs, lo, hi)
		fB := oracleFiltered(s, ts, fcols, fpreds, lo, hi)
		if equalI64(fA, fB) {
			if !equalI64(fGot, fA) {
				t.Fatalf("iter %d: ScanFiltered(%d,%d) diverges: got %d values, want %d",
					iter, lo, hi, len(fGot), len(fA))
			}
			if wantStates := oracleAggStates(fA, len(fcols), specs); !equalAggStates(gotStates, wantStates) {
				t.Fatalf("iter %d: ScanAggregate diverges: got %+v want %+v",
					iter, gotStates, wantStates)
			}
		}

		// Index-probe plan with an extra pushed predicate (probe candidates
		// come from the same possibly-stale index list on both sides).
		pcols := []int{2, 1, s.schema.Key}
		ppreds := []Pred{
			{Idx: 0, Lo: sv, Hi: sv},
			{Idx: 1, Lo: types.EncodeInt64(0), Hi: types.EncodeInt64(1 << 40)},
		}
		pA := oracleProbeFiltered(s, ts, 2, sv, pcols, ppreds)
		var pGot []int64
		if err := s.ProbeFiltered(ts, 2, sv, pcols, ppreds, func(vals []uint64) bool {
			for _, v := range vals {
				pGot = append(pGot, int64(v))
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		pB := oracleProbeFiltered(s, ts, 2, sv, pcols, ppreds)
		if equalI64(pA, pB) && !equalI64(pGot, pA) {
			t.Fatalf("iter %d: ProbeFiltered diverges: got %d values, want %d",
				iter, len(pGot), len(pA))
		}
	}
	close(stop)
	wg.Wait()

	st := s.Stats()
	if st.ScanFastSlots == 0 {
		t.Fatal("scan engine never took the fast path")
	}
}

// TestScanEngineMatchesReadColsOracle: sequential scans against the oracle
// under concurrent updates and mixed merge schedules.
func TestScanEngineMatchesReadColsOracle(t *testing.T) {
	runScanOracle(t, 1, 120)
}

// TestParallelScanMatchesReadColsOracle: same property with the worker pool
// forced on (ScanWorkers > ranges scanned is clamped per scan). Run with
// -race this doubles as the data-race test for parallel scans.
func TestParallelScanMatchesReadColsOracle(t *testing.T) {
	runScanOracle(t, 4, 120)
}

// TestScanOracleStorageVariants re-runs the oracle property across storage
// variants: raw pages (from incompressible data), row-layout pages (filtered
// through CompiledPred's generic branch) and spilled pages, each also under
// the parallel pool. The default config (compressed, resident) is covered by
// the two tests above; together the variants pin the "one scan engine"
// invariant — every storage representation must produce identical results
// through the identical engine surface.
func TestScanOracleStorageVariants(t *testing.T) {
	raw := func(o *scanOracleSetup) { o.rawData = true }
	// A pool cap of ~4 raw frames against 4+ sealed ranges × 4 pages each:
	// every scan churns through misses and evictions while writers and the
	// merge republish pages — the beyond-RAM variant of the same property.
	spill := func(o *scanOracleSetup) { o.cfg.Spill = NewMemSpill(); o.cfg.PoolBytes = 2048 }
	row := func(o *scanOracleSetup) { o.cfg.Layout = RowLayout }
	t.Run("raw", func(t *testing.T) { runScanOracle(t, 1, 60, raw) })
	t.Run("raw-parallel", func(t *testing.T) { runScanOracle(t, 4, 60, raw) })
	t.Run("row", func(t *testing.T) { runScanOracle(t, 1, 60, row) })
	t.Run("row-parallel", func(t *testing.T) { runScanOracle(t, 4, 60, row) })
	t.Run("spill", func(t *testing.T) { runScanOracle(t, 1, 60, spill) })
	t.Run("spill-parallel", func(t *testing.T) { runScanOracle(t, 4, 60, spill) })
	t.Run("spill-raw-parallel", func(t *testing.T) { runScanOracle(t, 4, 60, raw, spill) })
}

// TestParallelScanRangeOrderAndEarlyStop: parallel ScanRange must deliver
// exactly the sequential row order, and a false-returning callback must stop
// the scan after precisely the rows seen so far.
func TestParallelScanRangeOrderAndEarlyStop(t *testing.T) {
	cfg := scanOracleConfig(4)
	s := newTestStore(t, cfg)
	const rows = 256 // 4 ranges
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < rows; i++ {
			insertRow(t, s, tx, i, i, i%7, -i)
		}
	})
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < rows; i += 3 {
			if err := s.Update(tx, i, []int{1}, []types.Value{types.IntValue(1000 + i)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	s.ForceMerge()
	ts := s.tm.Now()
	cols := []int{1, 3}

	full := oracleRange(s, ts, cols, 0, ^types.RID(0))
	got := engineRange(s, ts, cols, 0, ^types.RID(0))
	if !equalI64(got, full) {
		t.Fatalf("parallel ScanRange order diverges from sequential oracle")
	}

	stride := 1 + len(cols)
	for _, stopAfter := range []int{1, 65, 130} {
		var seen []int64
		n := 0
		s.ScanRange(ts, cols, 0, ^types.RID(0), func(key int64, vals []types.Value) bool {
			seen = append(seen, key)
			n++
			return n < stopAfter
		})
		if n != stopAfter {
			t.Fatalf("early stop after %d rows delivered %d", stopAfter, n)
		}
		for i := 0; i < n; i++ {
			if seen[i] != full[i*stride] {
				t.Fatalf("stopAfter=%d: row %d key %d, want %d", stopAfter, i, seen[i], full[i*stride])
			}
		}
	}
}

// TestFilteredPlansQuiesced: on a quiesced store (writers stopped, index
// complete) the index-probe plan and the filtered bulk scan must produce
// exactly the same rows for the same predicates, both matching the chain-walk
// oracle; predicate windows over nulls and negations must behave; and a
// false-returning ScanFiltered callback must stop after precisely the rows
// seen so far.
func TestFilteredPlansQuiesced(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := newTestStore(t, scanOracleConfig(workers))
		const rows = 300
		mustCommit(t, s, func(tx *txn.Txn) {
			for i := int64(0); i < rows; i++ {
				insertRow(t, s, tx, i, 10*i, i%7, 30*i)
			}
		})
		// Null out col 1 of every 11th record; update col 2 of every 5th so
		// stale index entries exist for the old value.
		mustCommit(t, s, func(tx *txn.Txn) {
			for i := int64(0); i < rows; i += 11 {
				if err := s.Update(tx, i, []int{1}, []types.Value{types.NullValue()}); err != nil {
					t.Fatal(err)
				}
			}
			for i := int64(0); i < rows; i += 5 {
				if err := s.Update(tx, i, []int{2}, []types.Value{types.IntValue((i + 1) % 7)}); err != nil {
					t.Fatal(err)
				}
			}
		})
		s.ForceMerge()
		ts := s.tm.Now()

		cols := []int{2, 1, s.schema.Key}
		for k := int64(0); k < 7; k++ {
			sv := types.EncodeInt64(k)
			preds := []Pred{
				{Idx: 0, Lo: sv, Hi: sv},
				{Idx: 1, Lo: types.EncodeInt64(0), Hi: types.EncodeInt64(1 << 40)},
			}
			want := oracleFiltered(s, ts, cols, preds, 0, ^types.RID(0))
			if got := engineFiltered(s, ts, cols, preds, 0, ^types.RID(0)); !equalI64(got, want) {
				t.Fatalf("workers=%d k=%d: filtered scan diverges from oracle", workers, k)
			}
			var probe []int64
			if err := s.ProbeFiltered(ts, 2, sv, cols, preds, func(vals []uint64) bool {
				for _, v := range vals {
					probe = append(probe, int64(v))
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !equalI64(probe, want) {
				t.Fatalf("workers=%d k=%d: probe plan != scan plan (%d vs %d values)",
					workers, k, len(probe), len(want))
			}
		}

		// IS NULL / IS NOT NULL windows on the nulled column.
		isNull := []Pred{{Idx: 0, Lo: types.NullSlot, Hi: types.NullSlot}}
		notNull := []Pred{{Idx: 0, Lo: types.NullSlot, Hi: types.NullSlot, Negate: true}}
		ncols := []int{1, s.schema.Key}
		nullRows := len(engineFiltered(s, ts, ncols, isNull, 0, ^types.RID(0))) / len(ncols)
		liveRows := len(engineFiltered(s, ts, ncols, notNull, 0, ^types.RID(0))) / len(ncols)
		wantNull := (rows + 10) / 11
		if nullRows != wantNull || liveRows != rows-wantNull {
			t.Fatalf("workers=%d: null split %d/%d, want %d/%d",
				workers, nullRows, liveRows, wantNull, rows-wantNull)
		}

		// An unmatchable window yields nothing without touching rows.
		none := []Pred{{Idx: 0, Lo: types.EncodeInt64(1 << 41), Hi: types.EncodeInt64(1 << 42)}}
		if got := engineFiltered(s, ts, cols, none, 0, ^types.RID(0)); len(got) != 0 {
			t.Fatalf("workers=%d: unmatchable predicate returned %d values", workers, len(got))
		}

		// Early stop: exactly stopAfter rows, in sequential order.
		all := oracleFiltered(s, ts, cols, nil, 0, ^types.RID(0))
		for _, stopAfter := range []int{1, 70, 150} {
			var seen []int64
			n := 0
			s.ScanFiltered(ts, cols, nil, 0, ^types.RID(0), func(vals []uint64) bool {
				seen = append(seen, int64(vals[len(vals)-1]))
				n++
				return n < stopAfter
			})
			if n != stopAfter {
				t.Fatalf("workers=%d: early stop after %d rows delivered %d", workers, stopAfter, n)
			}
			for i := 0; i < n; i++ {
				if seen[i] != all[i*len(cols)+len(cols)-1] {
					t.Fatalf("workers=%d stopAfter=%d: row %d key %d, want %d",
						workers, stopAfter, i, seen[i], all[i*len(cols)+len(cols)-1])
				}
			}
		}
		s.Close()
	}
}

// TestBareCountSeesUnmergedDeletes: a COUNT with no materialized columns is
// the one plan whose readCols is empty — gatherCols degenerates to sentinel
// TPS extrema there, so the merged fast path must be bypassed or deletes
// newer than the last merge are wrongly served from merged pages
// (regression: found by review of the query-API PR).
func TestBareCountSeesUnmergedDeletes(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := newTestStore(t, scanOracleConfig(workers))
		const rows = 256 // several ranges so the parallel dispatch engages
		mustCommit(t, s, func(tx *txn.Txn) {
			for i := int64(0); i < rows; i++ {
				insertRow(t, s, tx, i, i, i%7, -i)
			}
		})
		// Update every row so updatedBits is set and the merge publishes a
		// Last Updated Time per slot, then delete some WITHOUT re-merging.
		mustCommit(t, s, func(tx *txn.Txn) {
			for i := int64(0); i < rows; i++ {
				if err := s.Update(tx, i, []int{1}, []types.Value{types.IntValue(i + 100)}); err != nil {
					t.Fatal(err)
				}
			}
		})
		s.ForceMerge()
		const deleted = 10
		mustCommit(t, s, func(tx *txn.Txn) {
			for i := int64(0); i < deleted; i++ {
				if err := s.Delete(tx, i); err != nil {
					t.Fatal(err)
				}
			}
		})
		ts := s.tm.Now()
		states := s.ScanAggregate(ts, nil, nil, []AggSpec{{Op: AggCount}}, 0, ^types.RID(0))
		if got := states[0].Count; got != rows-deleted {
			t.Fatalf("workers=%d: bare count = %d, want %d", workers, got, rows-deleted)
		}
		// Zero-width rows cannot ride the parallel staging buffers;
		// ScanFiltered must fall back to the sequential path (a stride-0
		// drain loop would spin forever) and still see the deletes.
		var n int64
		s.ScanFiltered(ts, nil, nil, 0, ^types.RID(0), func(vals []uint64) bool {
			n++
			return true
		})
		if n != rows-deleted {
			t.Fatalf("workers=%d: zero-column ScanFiltered saw %d rows, want %d", workers, n, rows-deleted)
		}
		// The point face must agree when probed without columns.
		var out [0]uint64
		var cvs [0]*colVersion
		loc, _ := s.locate(1)
		if exists, _ := s.probeSlot(ts, loc.rng, loc.slot, nil, out[:], cvs[:]); exists {
			t.Fatal("probeSlot with no columns served an unmerged-deleted slot")
		}
		s.Close()
	}
}

// TestScanSumParallelDeterministic: the parallel aggregate must be bit-equal
// across repeated runs and equal to a single-threaded pass over the same
// frozen snapshot.
func TestScanSumParallelDeterministic(t *testing.T) {
	s := newTestStore(t, scanOracleConfig(4))
	const rows = 320
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < rows; i++ {
			insertRow(t, s, tx, i, i*i, i%7, i)
		}
	})
	s.ForceMerge()
	ts := s.tm.Now()
	wantSum, wantRows := oracleSum(s, ts, 1, 0, ^types.RID(0))
	var firstSum atomic.Int64
	for rep := 0; rep < 20; rep++ {
		sum, n := s.ScanSumRIDs(ts, 1, 0, ^types.RID(0))
		if sum != wantSum || n != wantRows {
			t.Fatalf("rep %d: (%d,%d) != oracle (%d,%d)", rep, sum, n, wantSum, wantRows)
		}
		if rep == 0 {
			firstSum.Store(sum)
		} else if sum != firstSum.Load() {
			t.Fatalf("rep %d: nondeterministic sum", rep)
		}
	}
	if st := s.Stats(); st.ScanWorkers != 4 {
		t.Fatalf("ScanWorkers gauge = %d, want 4", st.ScanWorkers)
	}
}
