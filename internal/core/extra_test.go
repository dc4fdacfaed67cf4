package core

import (
	"testing"

	"lstore/internal/txn"
	"lstore/internal/types"
)

// TestSnapshotConsistencyAcrossLifecycle is the lifecycle property test:
// record a set of (timestamp, expected-value) observations while mutating,
// then re-verify every observation after each storage transition (merge,
// second merge, historic compression, more updates + merge again).
func TestSnapshotConsistencyAcrossLifecycle(t *testing.T) {
	cfg := Config{RangeSize: 64, TailBlockSize: 16, MergeBatch: 8, CumulativeUpdates: true}
	s, err := NewStore(testSchema(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 64; i++ {
			insertRow(t, s, tx, i, i, 0, 0)
		}
	})
	s.TrySeal(s.rangeAt(0))

	type obs struct {
		ts   types.Timestamp
		key  int64
		a    int64
		live bool
	}
	var observations []obs
	snap := func(key int64) {
		ts := s.tm.Now()
		vals, ok, err := s.GetAt(ts, key, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		o := obs{ts: ts, key: key, live: ok}
		if ok {
			o.a = vals[0].Int()
		}
		observations = append(observations, o)
	}
	verify := func(stage string) {
		t.Helper()
		for _, o := range observations {
			vals, ok, err := s.GetAt(o.ts, o.key, []int{1})
			if err != nil {
				t.Fatalf("%s: GetAt(%d,%d): %v", stage, o.ts, o.key, err)
			}
			if ok != o.live {
				t.Fatalf("%s: key %d at %d live=%v, observed %v", stage, o.key, o.ts, ok, o.live)
			}
			if ok && vals[0].Int() != o.a {
				t.Fatalf("%s: key %d at %d = %d, observed %d", stage, o.key, o.ts, vals[0].Int(), o.a)
			}
		}
	}

	// Mutate with observations in between.
	for round := int64(1); round <= 6; round++ {
		mustCommit(t, s, func(tx *txn.Txn) {
			for i := int64(0); i < 16; i++ {
				if err := s.Update(tx, i, []int{1}, []types.Value{types.IntValue(round*100 + i)}); err != nil {
					t.Fatal(err)
				}
			}
		})
		snap(3)
		snap(15)
	}
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Delete(tx, 3); err != nil {
			t.Fatal(err)
		}
	})
	snap(3)
	verify("pre-merge")

	s.ForceMerge()
	verify("post-merge")

	// Compress, then verify, then mutate again and re-verify everything.
	if s.CompressHistory() == 0 {
		t.Fatal("expected compressible history")
	}
	verify("post-compress")

	for round := int64(7); round <= 9; round++ {
		mustCommit(t, s, func(tx *txn.Txn) {
			for i := int64(4); i < 12; i++ {
				if err := s.Update(tx, i, []int{1}, []types.Value{types.IntValue(round*100 + i)}); err != nil {
					t.Fatal(err)
				}
			}
		})
		snap(5)
	}
	s.ForceMerge()
	s.CompressHistory()
	verify("post-second-cycle")
}

// TestMultiPassHistoryCompression verifies repeated compression passes
// accumulate versions without losing earlier ones.
func TestMultiPassHistoryCompression(t *testing.T) {
	cfg := Config{RangeSize: 32, TailBlockSize: 8, MergeBatch: 4, CumulativeUpdates: true}
	s, err := NewStore(testSchema(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 32; i++ {
			insertRow(t, s, tx, i, 0, 0, 0)
		}
	})
	s.TrySeal(s.rangeAt(0))

	var stamps []types.Timestamp
	for round := int64(1); round <= 4; round++ {
		mustCommit(t, s, func(tx *txn.Txn) {
			for i := int64(0); i < 8; i++ {
				if err := s.Update(tx, 1, []int{1}, []types.Value{types.IntValue(round*10 + i)}); err != nil {
					t.Fatal(err)
				}
			}
		})
		stamps = append(stamps, s.tm.Now())
		s.ForceMerge()
		s.CompressHistory() // one pass per round
	}
	if s.Stats().HistoryPasses < 2 {
		t.Fatalf("history passes = %d, want >= 2", s.Stats().HistoryPasses)
	}
	for round, ts := range stamps {
		vals, ok, err := s.GetAt(ts, 1, []int{1})
		if err != nil || !ok {
			t.Fatalf("round %d: %v %v", round, ok, err)
		}
		want := int64(round+1)*10 + 7
		if vals[0].Int() != want {
			t.Fatalf("round %d value = %d, want %d", round, vals[0].Int(), want)
		}
	}
}

// TestTxnSweepAfterLazySwaps: once readers have lazily swapped every Start
// Time slot of a committed transaction, the manager can forget it.
func TestTxnSweepAfterLazySwaps(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 1, 1, 1) })
	for i := int64(0); i < 63; i++ {
		mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 100+i, 0, 0, 0) })
	}
	writer := s.tm.Begin(txn.ReadCommitted)
	if err := s.Update(writer, 1, []int{1}, []types.Value{types.IntValue(9)}); err != nil {
		t.Fatal(err)
	}
	if err := s.tm.Commit(writer); err != nil {
		t.Fatal(err)
	}
	// Reads lazily swap the txn id for the commit time.
	getRow(t, s, 1)
	// Seal swaps the insert-range slots of the preload txns.
	if !s.TrySeal(s.rangeAt(0)) {
		t.Fatal("seal failed")
	}
	swept := s.tm.Sweep()
	if swept == 0 {
		t.Fatal("no transactions swept after full lazy swap")
	}
	if _, ok := s.tm.Lookup(writer.ID); ok {
		t.Fatal("drained writer still tracked")
	}
	// Reads still work (slots now hold plain commit times).
	if got, ok := getRow(t, s, 1); !ok || got[0] != 9 {
		t.Fatalf("post-sweep read = %v %v", got, ok)
	}
}

// TestScanRangeBounds exercises RID-bounded scans crossing range borders.
func TestScanRangeBounds(t *testing.T) {
	cfg := testConfig()
	cfg.RangeSize = 16
	cfg.TailBlockSize = 16
	s := newTestStore(t, cfg)
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 48; i++ {
			insertRow(t, s, tx, i, 1, 0, 0)
		}
	})
	count := func(lo, hi types.RID) int {
		n := 0
		s.ScanRange(s.tm.Now(), []int{1}, lo, hi, func(int64, []types.Value) bool {
			n++
			return true
		})
		return n
	}
	if got := count(1, 49); got != 48 {
		t.Fatalf("full scan = %d", got)
	}
	if got := count(8, 24); got != 16 {
		t.Fatalf("cross-range scan = %d, want 16", got)
	}
	if got := count(100, 200); got != 0 {
		t.Fatalf("out-of-range scan = %d", got)
	}
}

// TestSecondaryIndexSurvivesDeleteAndMerge: deleted records drop out of
// index answers; merge does not resurrect them.
func TestSecondaryIndexSurvivesDeleteAndMerge(t *testing.T) {
	cfg := testConfig()
	cfg.SecondaryIndexColumns = []int{2}
	s := newTestStore(t, cfg)
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 64; i++ {
			insertRow(t, s, tx, i, 0, i%4, 0)
		}
	})
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Delete(tx, 2); err != nil { // key 2 had B = 2
			t.Fatal(err)
		}
	})
	keys, err := s.LookupSecondary(s.tm.Now(), 2, types.IntValue(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k == 2 {
			t.Fatal("deleted key in index answer")
		}
	}
	if len(keys) != 15 {
		t.Fatalf("lookup = %d keys, want 15", len(keys))
	}
	s.ForceMerge()
	keys, _ = s.LookupSecondary(s.tm.Now(), 2, types.IntValue(2))
	if len(keys) != 15 {
		t.Fatalf("post-merge lookup = %d keys", len(keys))
	}
}

// TestUpdateWithNullValue sets a column to ∅ explicitly.
func TestUpdateWithNullValue(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 5, 6, 7) })
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 1, []int{2}, []types.Value{types.NullValue()}); err != nil {
			t.Fatal(err)
		}
	})
	tx := s.tm.Begin(txn.ReadCommitted)
	defer s.tm.Abort(tx)
	vals, ok, _ := s.Get(tx, 1, []int{1, 2, 3})
	if !ok || !vals[1].IsNull() || vals[0].Int() != 5 {
		t.Fatalf("null update = %v %v", vals, ok)
	}
	// Scans skip the null but keep the row.
	sum, rows := s.ScanSum(s.tm.Now(), 2)
	if sum != 0 || rows != 0 {
		t.Fatalf("scan over nulled column = %d/%d", sum, rows)
	}
	s.ForceMerge()
	vals, ok, _ = s.Get(tx, 1, []int{2})
	if !ok || !vals[0].IsNull() {
		t.Fatalf("null lost in merge: %v", vals)
	}
}

// TestGetAtBetweenInsertAndSeal reads a snapshot taken while the range was
// still an insert range, after it has been sealed and merged.
func TestGetAtBetweenInsertAndSeal(t *testing.T) {
	cfg := testConfig()
	cfg.RangeSize = 16
	cfg.TailBlockSize = 16
	s := newTestStore(t, cfg)
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 0, 0) })
	tsEarly := s.tm.Now()
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 1, []int{1}, []types.Value{types.IntValue(11)}); err != nil {
			t.Fatal(err)
		}
		for i := int64(2); i <= 16; i++ {
			insertRow(t, s, tx, i, 0, 0, 0)
		}
	})
	s.TrySeal(s.rangeAt(0))
	s.ForceMerge()
	vals, ok, err := s.GetAt(tsEarly, 1, []int{1})
	if err != nil || !ok || vals[0].Int() != 10 {
		t.Fatalf("pre-seal snapshot after seal+merge = %v %v %v", vals, ok, err)
	}
	// Records inserted after tsEarly are invisible at it.
	if _, ok, _ := s.GetAt(tsEarly, 5, []int{1}); ok {
		t.Fatal("later insert visible at early snapshot")
	}
}

// TestIndependentColumnMergeWithDeletes: a per-column merge that consumes a
// delete tombstone blanks only its own column but still flags the record.
func TestIndependentColumnMergeWithDeletes(t *testing.T) {
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Delete(tx, 7); err != nil {
			t.Fatal(err)
		}
	})
	if n := s.MergeColumn(0, 1); n == 0 {
		t.Fatal("column merge consumed nothing")
	}
	r := s.rangeAt(0)
	if !r.version.Load().mergedDeleted(7) {
		t.Fatal("delete flag not set by column merge")
	}
	if _, ok := getRow(t, s, 7); ok {
		t.Fatal("deleted row visible after column merge")
	}
	// Other columns catch up later; reads stay correct throughout.
	s.MergeColumn(0, 2)
	s.MergeColumn(0, 3)
	if _, ok := getRow(t, s, 7); ok {
		t.Fatal("deleted row visible after full catch-up")
	}
	if got, ok := getRow(t, s, 8); !ok || got[0] != 80 {
		t.Fatalf("neighbor damaged: %v %v", got, ok)
	}
}

// TestSpeculativeReadValidation: a speculative read of a pre-committed
// version must fail validation if that version's writer ultimately aborts.
func TestSpeculativeReadValidation(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 0, 0) })

	writer := s.tm.Begin(txn.ReadCommitted)
	if err := s.Update(writer, 1, []int{1}, []types.Value{types.IntValue(55)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.tm.Prepare(writer); err != nil {
		t.Fatal(err)
	}
	reader := s.tm.Begin(txn.Snapshot)
	sv, ok, err := s.GetSpeculative(reader, 1, []int{1})
	if err != nil || !ok || sv[0].Int() != 55 {
		t.Fatalf("speculative read = %v %v %v", sv, ok, err)
	}
	// The writer aborts: the speculative read was of a version that never
	// committed, so the reader must fail validation.
	s.tm.Abort(writer)
	if err := s.tm.Commit(reader); err != txn.ErrConflict {
		t.Fatalf("reader commit = %v, want ErrConflict", err)
	}

	// And the happy path: writer commits first, reader validates fine.
	writer2 := s.tm.Begin(txn.ReadCommitted)
	if err := s.Update(writer2, 1, []int{1}, []types.Value{types.IntValue(66)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.tm.Prepare(writer2); err != nil {
		t.Fatal(err)
	}
	reader2 := s.tm.Begin(txn.Snapshot)
	if sv, ok, _ := s.GetSpeculative(reader2, 1, []int{1}); !ok || sv[0].Int() != 66 {
		t.Fatalf("speculative read 2 = %v", sv)
	}
	if err := s.tm.Commit(writer2); err != nil {
		t.Fatal(err)
	}
	if err := s.tm.Commit(reader2); err != nil {
		t.Fatalf("reader2 commit = %v", err)
	}
}

// TestStatsCounters sanity-checks the introspection counters move.
func TestStatsCounters(t *testing.T) {
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 8; i++ {
			if err := s.Update(tx, i, []int{1}, []types.Value{types.IntValue(1)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Delete(tx, 60); err != nil {
			t.Fatal(err)
		}
	})
	getRow(t, s, 0)
	s.ScanSum(s.tm.Now(), 1)
	s.ForceMerge()
	st := s.Stats()
	if st.Inserts != 64 || st.Updates != 8 || st.Deletes != 1 {
		t.Fatalf("op counters: %+v", st)
	}
	if st.PointReads == 0 || st.Scans == 0 {
		t.Fatalf("read counters: %+v", st)
	}
	if st.TailRecords == 0 || st.Merges == 0 || st.MergedTailRecords == 0 || st.Seals != 1 {
		t.Fatalf("merge counters: %+v", st)
	}
	if st.PagesRetired == 0 {
		t.Fatalf("retirement counters: %+v", st)
	}
	if s.NumRecords() != 64 {
		t.Fatalf("NumRecords = %d", s.NumRecords())
	}
}

// TestLocateRejectsForeignRIDs covers the RID-location guard rails.
func TestLocateRejectsForeignRIDs(t *testing.T) {
	s := newTestStore(t, testConfig())
	if _, ok := s.locate(types.InvalidRID); ok {
		t.Fatal("located invalid RID")
	}
	if _, ok := s.locate(types.TailRIDBase + 5); ok {
		t.Fatal("located tail RID as base")
	}
	if _, ok := s.locate(types.RID(1 << 30)); ok {
		t.Fatal("located out-of-range RID")
	}
}
