package core

import (
	"testing"

	"lstore/internal/txn"
	"lstore/internal/types"
)

// testSchema mirrors the paper's running example: key + columns A, B, C
// (Table 2).
func testSchema() types.Schema {
	return types.Schema{
		Cols: []types.ColumnDef{
			{Name: "key", Type: types.Int64},
			{Name: "A", Type: types.Int64},
			{Name: "B", Type: types.Int64},
			{Name: "C", Type: types.Int64},
		},
		Key: 0,
	}
}

func testConfig() Config {
	return Config{
		RangeSize:         64,
		TailBlockSize:     16,
		MergeBatch:        8,
		CumulativeUpdates: true,
		AutoMerge:         false,
	}
}

func newTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := NewStore(testSchema(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// colVer returns column col's base version in r's current published version
// (nil while the range is unsealed).
func (r *updateRange) colVer(col int) *colVersion {
	if v := r.version.Load(); v != nil {
		return &v.cols[col]
	}
	return nil
}

// mustCommit runs fn inside a read-committed transaction and commits.
func mustCommit(t *testing.T, s *Store, fn func(tx *txn.Txn)) *txn.Txn {
	t.Helper()
	tx := s.tm.Begin(txn.ReadCommitted)
	fn(tx)
	if err := s.tm.Commit(tx); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return tx
}

func insertRow(t *testing.T, s *Store, tx *txn.Txn, key, a, b, c int64) {
	t.Helper()
	err := s.Insert(tx, []types.Value{
		types.IntValue(key), types.IntValue(a), types.IntValue(b), types.IntValue(c),
	})
	if err != nil {
		t.Fatalf("insert %d: %v", key, err)
	}
}

func getRow(t *testing.T, s *Store, key int64) ([]int64, bool) {
	t.Helper()
	tx := s.tm.Begin(txn.ReadCommitted)
	defer s.tm.Abort(tx)
	vals, ok, err := s.Get(tx, key, []int{1, 2, 3})
	if err != nil {
		t.Fatalf("get %d: %v", key, err)
	}
	if !ok {
		return nil, false
	}
	out := make([]int64, len(vals))
	for i, v := range vals {
		out[i] = v.Int()
	}
	return out, true
}

func TestInsertAndGet(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) {
		insertRow(t, s, tx, 1, 10, 20, 30)
		insertRow(t, s, tx, 2, 11, 21, 31)
	})
	got, ok := getRow(t, s, 1)
	if !ok || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("row 1 = %v, %v", got, ok)
	}
	got, ok = getRow(t, s, 2)
	if !ok || got[0] != 11 {
		t.Fatalf("row 2 = %v, %v", got, ok)
	}
	if _, ok := getRow(t, s, 99); ok {
		t.Fatal("absent key found")
	}
}

func TestUncommittedInsertInvisible(t *testing.T) {
	s := newTestStore(t, testConfig())
	tx := s.tm.Begin(txn.ReadCommitted)
	insertRow(t, s, tx, 1, 10, 20, 30)
	// Another reader must not see it.
	if _, ok := getRow(t, s, 1); ok {
		t.Fatal("uncommitted insert visible")
	}
	// The inserting transaction sees its own write.
	vals, ok, err := s.Get(tx, 1, []int{1})
	if err != nil || !ok || vals[0].Int() != 10 {
		t.Fatalf("own read = %v %v %v", vals, ok, err)
	}
	s.tm.Abort(tx)
	if _, ok := getRow(t, s, 1); ok {
		t.Fatal("aborted insert visible")
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 7, 1, 2, 3) })
	tx := s.tm.Begin(txn.ReadCommitted)
	err := s.Insert(tx, []types.Value{
		types.IntValue(7), types.IntValue(0), types.IntValue(0), types.IntValue(0),
	})
	if err != ErrDuplicateKey {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
	s.tm.Abort(tx)
	// Original row intact.
	if got, ok := getRow(t, s, 7); !ok || got[0] != 1 {
		t.Fatalf("row 7 = %v %v", got, ok)
	}
}

func TestUpdateCreatesNewVersion(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 20, 30) })
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 1, []int{1}, []types.Value{types.IntValue(100)}); err != nil {
			t.Fatal(err)
		}
	})
	got, ok := getRow(t, s, 1)
	if !ok || got[0] != 100 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("after update: %v %v", got, ok)
	}
}

func TestUncommittedUpdateInvisibleAndAbortRollsBack(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 20, 30) })

	tx := s.tm.Begin(txn.ReadCommitted)
	if err := s.Update(tx, 1, []int{1}, []types.Value{types.IntValue(999)}); err != nil {
		t.Fatal(err)
	}
	// Own read sees it; others do not.
	vals, ok, _ := s.Get(tx, 1, []int{1})
	if !ok || vals[0].Int() != 999 {
		t.Fatalf("own read = %v", vals)
	}
	if got, _ := getRow(t, s, 1); got[0] != 10 {
		t.Fatalf("other read sees uncommitted: %v", got)
	}
	s.tm.Abort(tx)
	// Append-only rollback: tail record tombstoned, not removed.
	if got, _ := getRow(t, s, 1); got[0] != 10 {
		t.Fatalf("after abort: %v", got)
	}
	// A later update walks past the tombstone.
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 1, []int{1}, []types.Value{types.IntValue(11)}); err != nil {
			t.Fatal(err)
		}
	})
	if got, _ := getRow(t, s, 1); got[0] != 11 {
		t.Fatalf("after post-abort update: %v", got)
	}
}

func TestWriteWriteConflictAbortsSecondWriter(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 20, 30) })

	t1 := s.tm.Begin(txn.ReadCommitted)
	t2 := s.tm.Begin(txn.ReadCommitted)
	if err := s.Update(t1, 1, []int{1}, []types.Value{types.IntValue(11)}); err != nil {
		t.Fatal(err)
	}
	// t2 must hit the uncommitted-competitor check.
	if err := s.Update(t2, 1, []int{2}, []types.Value{types.IntValue(22)}); err != txn.ErrConflict {
		t.Fatalf("second writer err = %v, want ErrConflict", err)
	}
	s.tm.Abort(t2)
	if err := s.tm.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if got, _ := getRow(t, s, 1); got[0] != 11 || got[1] != 20 {
		t.Fatalf("after conflict: %v", got)
	}
	if s.Stats().WWConflicts == 0 {
		t.Fatal("conflict not counted")
	}
}

func TestSameTxnMultipleUpdatesLastWins(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 20, 30) })
	mustCommit(t, s, func(tx *txn.Txn) {
		for _, v := range []int64{11, 12, 13} {
			if err := s.Update(tx, 1, []int{1}, []types.Value{types.IntValue(v)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got, _ := getRow(t, s, 1); got[0] != 13 {
		t.Fatalf("last update should win: %v", got)
	}
}

func TestDeleteAndReinsert(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 20, 30) })
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Delete(tx, 1); err != nil {
			t.Fatal(err)
		}
	})
	if _, ok := getRow(t, s, 1); ok {
		t.Fatal("deleted row visible")
	}
	// Updating a deleted record fails.
	tx := s.tm.Begin(txn.ReadCommitted)
	if err := s.Update(tx, 1, []int{1}, []types.Value{types.IntValue(5)}); err != ErrNotFound {
		t.Fatalf("update deleted: %v", err)
	}
	s.tm.Abort(tx)
	// Re-insert under the same key gets a fresh record.
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 77, 88, 99) })
	if got, ok := getRow(t, s, 1); !ok || got[0] != 77 {
		t.Fatalf("reinserted = %v %v", got, ok)
	}
}

func TestDeleteVisibilityIsTransactional(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 20, 30) })
	tx := s.tm.Begin(txn.ReadCommitted)
	if err := s.Delete(tx, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := getRow(t, s, 1); !ok {
		t.Fatal("uncommitted delete already visible")
	}
	s.tm.Abort(tx)
	if _, ok := getRow(t, s, 1); !ok {
		t.Fatal("aborted delete removed the record")
	}
}

func TestNullValues(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) {
		err := s.Insert(tx, []types.Value{
			types.IntValue(1), types.NullValue(), types.IntValue(2), types.NullValue(),
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	tx := s.tm.Begin(txn.ReadCommitted)
	defer s.tm.Abort(tx)
	vals, ok, err := s.Get(tx, 1, []int{1, 2, 3})
	if err != nil || !ok {
		t.Fatal(err)
	}
	if !vals[0].IsNull() || vals[1].Int() != 2 || !vals[2].IsNull() {
		t.Fatalf("nulls mishandled: %v", vals)
	}
}

func TestStringColumnsDictionaryEncoded(t *testing.T) {
	schema := types.Schema{
		Cols: []types.ColumnDef{
			{Name: "key", Type: types.Int64},
			{Name: "city", Type: types.String},
		},
		Key: 0,
	}
	s, err := NewStore(schema, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tm := s.TxnManager()
	tx := tm.Begin(txn.ReadCommitted)
	for i := int64(0); i < 10; i++ {
		city := []string{"nyc", "sf", "nyc", "la"}[i%4]
		if err := s.Insert(tx, []types.Value{types.IntValue(i), types.StringValue(city)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tm.Commit(tx); err != nil {
		t.Fatal(err)
	}
	tx2 := tm.Begin(txn.ReadCommitted)
	defer tm.Abort(tx2)
	vals, ok, err := s.Get(tx2, 2, []int{1})
	if err != nil || !ok || vals[0].Str() != "nyc" {
		t.Fatalf("string roundtrip: %v %v %v", vals, ok, err)
	}
	if s.dicts[1].size() != 3 {
		t.Fatalf("dict size = %d, want 3", s.dicts[1].size())
	}
	// Update to a new string.
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 2, []int{1}, []types.Value{types.StringValue("tokyo")}); err != nil {
			t.Fatal(err)
		}
	})
	tx3 := tm.Begin(txn.ReadCommitted)
	defer tm.Abort(tx3)
	vals, _, _ = s.Get(tx3, 2, []int{1})
	if vals[0].Str() != "tokyo" {
		t.Fatalf("updated string = %v", vals[0])
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	s := newTestStore(t, testConfig())
	tx := s.tm.Begin(txn.ReadCommitted)
	defer s.tm.Abort(tx)
	err := s.Insert(tx, []types.Value{
		types.StringValue("oops"), types.IntValue(1), types.IntValue(2), types.IntValue(3),
	})
	if err == nil {
		t.Fatal("string into int64 key accepted")
	}
	err = s.Insert(tx, []types.Value{types.IntValue(5)})
	if err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestUpdateKeyColumnRejected(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 20, 30) })
	tx := s.tm.Begin(txn.ReadCommitted)
	defer s.tm.Abort(tx)
	if err := s.Update(tx, 1, []int{0}, []types.Value{types.IntValue(2)}); err == nil {
		t.Fatal("key update accepted")
	}
}

func TestInsertRangeRollover(t *testing.T) {
	cfg := testConfig()
	cfg.RangeSize = 16
	cfg.TailBlockSize = 16
	s := newTestStore(t, cfg)
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 100; i++ {
			insertRow(t, s, tx, i, i*2, i*3, i*4)
		}
	})
	if got := s.rangeCount(); got < 7 {
		t.Fatalf("rangeCount = %d, want >= 7", got)
	}
	for i := int64(0); i < 100; i++ {
		got, ok := getRow(t, s, i)
		if !ok || got[0] != i*2 || got[2] != i*4 {
			t.Fatalf("row %d = %v %v", i, got, ok)
		}
	}
}

func TestScanSum(t *testing.T) {
	s := newTestStore(t, testConfig())
	var want int64
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 50; i++ {
			insertRow(t, s, tx, i, i, 2*i, 3*i)
			want += i
		}
	})
	sum, rows := s.ScanSum(s.tm.Now(), 1)
	if sum != want || rows != 50 {
		t.Fatalf("sum = %d rows = %d, want %d/50", sum, rows, want)
	}
	// Updates move the sum.
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 0, []int{1}, []types.Value{types.IntValue(1000)}); err != nil {
			t.Fatal(err)
		}
	})
	sum, _ = s.ScanSum(s.tm.Now(), 1)
	if sum != want+1000 {
		t.Fatalf("sum after update = %d, want %d", sum, want+1000)
	}
	// Deleted rows leave the sum.
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Delete(tx, 3); err != nil {
			t.Fatal(err)
		}
	})
	sum, rows = s.ScanSum(s.tm.Now(), 1)
	if sum != want+1000-3 || rows != 49 {
		t.Fatalf("sum after delete = %d rows %d", sum, rows)
	}
}

func TestScanSumSnapshotStability(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 20; i++ {
			insertRow(t, s, tx, i, 1, 0, 0)
		}
	})
	snap := s.tm.Now()
	// Concurrent-ish updates after the snapshot.
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 20; i++ {
			if err := s.Update(tx, i, []int{1}, []types.Value{types.IntValue(100)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	sum, _ := s.ScanSum(snap, 1)
	if sum != 20 {
		t.Fatalf("snapshot scan = %d, want 20 (pre-update values)", sum)
	}
	sum, _ = s.ScanSum(s.tm.Now(), 1)
	if sum != 2000 {
		t.Fatalf("current scan = %d, want 2000", sum)
	}
}

func TestScanRange(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 30; i++ {
			insertRow(t, s, tx, i, i*10, 0, 0)
		}
	})
	var keys []int64
	s.ScanRange(s.tm.Now(), []int{1}, 0, ^types.RID(0), func(key int64, vals []types.Value) bool {
		if vals[0].Int() != key*10 {
			t.Errorf("key %d has A=%d", key, vals[0].Int())
		}
		keys = append(keys, key)
		return true
	})
	if len(keys) != 30 {
		t.Fatalf("scanned %d rows, want 30", len(keys))
	}
	// Early stop.
	n := 0
	s.ScanRange(s.tm.Now(), []int{1}, 0, ^types.RID(0), func(int64, []types.Value) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestGetAtTimeTravel(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 20, 30) })
	ts1 := s.tm.Now()
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 1, []int{1}, []types.Value{types.IntValue(11)}); err != nil {
			t.Fatal(err)
		}
	})
	ts2 := s.tm.Now()
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 1, []int{1, 3}, []types.Value{types.IntValue(12), types.IntValue(33)}); err != nil {
			t.Fatal(err)
		}
	})
	ts3 := s.tm.Now()

	check := func(ts types.Timestamp, wantA, wantC int64) {
		t.Helper()
		vals, ok, err := s.GetAt(ts, 1, []int{1, 3})
		if err != nil || !ok {
			t.Fatalf("GetAt(%d): %v %v", ts, ok, err)
		}
		if vals[0].Int() != wantA || vals[1].Int() != wantC {
			t.Fatalf("GetAt(%d) = A:%v C:%v, want %d/%d", ts, vals[0], vals[1], wantA, wantC)
		}
	}
	check(ts1, 10, 30)
	check(ts2, 11, 30)
	check(ts3, 12, 33)

	// Before the insert the record does not exist.
	if _, ok, _ := s.GetAt(0, 1, []int{1}); ok {
		t.Fatal("record visible before insert")
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	cfg := testConfig()
	cfg.SecondaryIndexColumns = []int{3}
	s := newTestStore(t, cfg)
	mustCommit(t, s, func(tx *txn.Txn) {
		insertRow(t, s, tx, 1, 0, 0, 7)
		insertRow(t, s, tx, 2, 0, 0, 7)
		insertRow(t, s, tx, 3, 0, 0, 8)
	})
	keys, err := s.LookupSecondary(s.tm.Now(), 3, types.IntValue(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("lookup(7) = %v", keys)
	}
	// Update moves record 1 from 7 to 9; stale entry must be filtered by
	// predicate re-evaluation (§3.1).
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 1, []int{3}, []types.Value{types.IntValue(9)}); err != nil {
			t.Fatal(err)
		}
	})
	keys, _ = s.LookupSecondary(s.tm.Now(), 3, types.IntValue(7))
	if len(keys) != 1 || keys[0] != 2 {
		t.Fatalf("lookup(7) after update = %v", keys)
	}
	keys, _ = s.LookupSecondary(s.tm.Now(), 3, types.IntValue(9))
	if len(keys) != 1 || keys[0] != 1 {
		t.Fatalf("lookup(9) = %v", keys)
	}
}

func TestSnapshotIsolationLevelReadsBeginTime(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 20, 30) })
	snap := s.tm.Begin(txn.Snapshot)
	// A later committed update is invisible to the snapshot txn.
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 1, []int{1}, []types.Value{types.IntValue(99)}); err != nil {
			t.Fatal(err)
		}
	})
	vals, ok, err := s.Get(snap, 1, []int{1})
	if err != nil || !ok || vals[0].Int() != 10 {
		t.Fatalf("snapshot read = %v %v %v", vals, ok, err)
	}
	if err := s.tm.Commit(snap); err != nil {
		t.Fatal(err)
	}
}

func TestSerializableValidationDetectsChange(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 20, 30) })

	t1 := s.tm.Begin(txn.Serializable)
	if _, ok, err := s.Get(t1, 1, []int{1}); err != nil || !ok {
		t.Fatalf("read: %v %v", ok, err)
	}
	// A competing committed write invalidates t1's read.
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 1, []int{1}, []types.Value{types.IntValue(99)}); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.tm.Commit(t1); err != txn.ErrConflict {
		t.Fatalf("commit err = %v, want ErrConflict", err)
	}

	// Without interference the same pattern commits.
	t2 := s.tm.Begin(txn.Serializable)
	if _, ok, _ := s.Get(t2, 1, []int{1}); !ok {
		t.Fatal("read failed")
	}
	if err := s.tm.Commit(t2); err != nil {
		t.Fatalf("clean serializable commit failed: %v", err)
	}
}

func TestSpeculativeReadSeesPreCommit(t *testing.T) {
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) { insertRow(t, s, tx, 1, 10, 20, 30) })

	writer := s.tm.Begin(txn.ReadCommitted)
	if err := s.Update(writer, 1, []int{1}, []types.Value{types.IntValue(55)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.tm.Prepare(writer); err != nil {
		t.Fatal(err)
	}
	// Normal read: old value. Speculative: pre-committed value.
	reader := s.tm.Begin(txn.ReadCommitted)
	vals, _, _ := s.Get(reader, 1, []int{1})
	if vals[0].Int() != 10 {
		t.Fatalf("normal read = %v, want 10", vals[0])
	}
	sv, _, _ := s.GetSpeculative(reader, 1, []int{1})
	if sv[0].Int() != 55 {
		t.Fatalf("speculative read = %v, want 55", sv[0])
	}
	s.tm.Abort(reader)
	if err := writer.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.tm.Commit(writer); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	_, err := NewStore(testSchema(), Config{RangeSize: 100}, nil)
	if err == nil {
		t.Fatal("non-power-of-two RangeSize accepted")
	}
	_, err = NewStore(testSchema(), Config{RangeSize: 64, TailBlockSize: 48}, nil)
	if err == nil {
		t.Fatal("non-dividing TailBlockSize accepted")
	}
	_, err = NewStore(types.Schema{}, Config{}, nil)
	if err == nil {
		t.Fatal("empty schema accepted")
	}
	_, err = NewStore(testSchema(), Config{SecondaryIndexColumns: []int{9}}, nil)
	if err == nil {
		t.Fatal("bad secondary column accepted")
	}
}
