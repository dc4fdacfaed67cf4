package core

import (
	"testing"

	"lstore/internal/txn"
	"lstore/internal/types"
)

// fillRange inserts exactly one full range worth of rows and seals it so it
// leaves the insert range (precondition for regular merges, §3.2).
func fillRange(t *testing.T, s *Store, n int) {
	t.Helper()
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < int64(n); i++ {
			insertRow(t, s, tx, i, 10*i, 20*i, 30*i)
		}
	})
	if !s.TrySeal(s.rangeAt(0)) {
		t.Fatal("seal failed")
	}
}

func TestSealMakesBasePagesAndDiscardsTableTail(t *testing.T) {
	cfg := testConfig() // RangeSize 64
	s := newTestStore(t, cfg)
	fillRange(t, s, 64)
	r := s.rangeAt(0)
	if r.version.Load() == nil {
		t.Fatal("range not sealed")
	}
	if r.insertBlock.Load() != nil {
		t.Fatal("table-level tail pages not discarded after seal")
	}
	for c := 0; c < 4; c++ {
		cv := r.colVer(c)
		if cv == nil || cv.tps != 0 {
			t.Fatalf("col %d version missing or wrong TPS", c)
		}
	}
	// Data survives the seal.
	for i := int64(0); i < 64; i++ {
		got, ok := getRow(t, s, i)
		if !ok || got[0] != 10*i || got[2] != 30*i {
			t.Fatalf("row %d after seal = %v %v", i, got, ok)
		}
	}
	if s.Stats().Seals != 1 {
		t.Fatalf("seals = %d", s.Stats().Seals)
	}
}

func TestSealRequiresResolvedInserts(t *testing.T) {
	cfg := testConfig()
	cfg.RangeSize = 16
	cfg.TailBlockSize = 16
	s := newTestStore(t, cfg)
	tx := s.tm.Begin(txn.ReadCommitted)
	for i := int64(0); i < 16; i++ {
		insertRow(t, s, tx, i, i, i, i)
	}
	// Insert range is full but uncommitted: seal must refuse.
	if s.TrySeal(s.rangeAt(0)) {
		t.Fatal("sealed a range with in-flight inserts")
	}
	if err := s.tm.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if !s.TrySeal(s.rangeAt(0)) {
		t.Fatal("seal failed after commit")
	}
}

func TestMergeConsolidatesAndAdvancesTPS(t *testing.T) {
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	// Update A of rows 0..9 twice.
	for round := int64(1); round <= 2; round++ {
		mustCommit(t, s, func(tx *txn.Txn) {
			for i := int64(0); i < 10; i++ {
				if err := s.Update(tx, i, []int{1}, []types.Value{types.IntValue(1000*round + i)}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	merged := s.ForceMerge()
	if merged == 0 {
		t.Fatal("merge consumed nothing")
	}
	r := s.rangeAt(0)
	cv := r.colVer(1)
	if cv.tps == 0 {
		t.Fatal("TPS not advanced")
	}
	// The merged base page holds the newest committed values: intermediate
	// versions were skipped (Algorithm 1).
	for i := 0; i < 10; i++ {
		want := types.EncodeInt64(2000 + int64(i))
		if got := cv.data.Get(i); got != want {
			t.Fatalf("merged A[%d] = %d, want %d", i, got, want)
		}
	}
	// Untouched rows keep originals.
	if got := cv.data.Get(20); got != types.EncodeInt64(200) {
		t.Fatalf("merged A[20] = %d", got)
	}
	// Reads after merge see the same values as before (2-hop fast path).
	for i := int64(0); i < 10; i++ {
		got, _ := getRow(t, s, i)
		if got[0] != 2000+i {
			t.Fatalf("row %d after merge = %v", i, got)
		}
	}
	// Consistent TPS across columns after a full merge (Lemma 3).
	if _, ok := s.CheckTPSConsistency(0); !ok {
		t.Fatal("full merge left inconsistent TPS")
	}
}

func TestMergeIsIdempotentlyRepeatable(t *testing.T) {
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 5; i++ {
			if err := s.Update(tx, i, []int{2}, []types.Value{types.IntValue(7 * i)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	s.ForceMerge()
	before := make([]uint64, 64)
	cv := s.rangeAt(0).colVer(2)
	for i := range before {
		before[i] = cv.data.Get(i)
	}
	// Re-running merges with no new tail records changes nothing.
	if n := s.ForceMerge(); n != 0 {
		t.Fatalf("idle merge consumed %d records", n)
	}
	cv2 := s.rangeAt(0).colVer(2)
	for i := range before {
		if cv2.data.Get(i) != before[i] {
			t.Fatalf("idle merge changed slot %d", i)
		}
	}
}

func TestMergeSkipsUncommittedSuffix(t *testing.T) {
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 1, []int{1}, []types.Value{types.IntValue(111)}); err != nil {
			t.Fatal(err)
		}
	})
	// An in-flight transaction's records form the prefix cut.
	open := s.tm.Begin(txn.ReadCommitted)
	if err := s.Update(open, 2, []int{1}, []types.Value{types.IntValue(222)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 3, []int{1}, []types.Value{types.IntValue(333)}); err != nil {
			t.Fatal(err)
		}
	})
	s.ForceMerge()
	cv := s.rangeAt(0).colVer(1)
	// Row 1's update (before the cut) is merged; row 3's (after the cut) is
	// not — "consecutive" means the merge stops at the first unresolved
	// record (§4.1 step 1).
	if got := cv.data.Get(1); got != types.EncodeInt64(111) {
		t.Fatalf("committed-before-cut not merged: %d", got)
	}
	if got := cv.data.Get(3); got == types.EncodeInt64(333) {
		t.Fatal("record after uncommitted cut was merged")
	}
	// Reads still correct for everyone.
	if got, _ := getRow(t, s, 3); got[0] != 333 {
		t.Fatalf("row 3 = %v", got)
	}
	if got, _ := getRow(t, s, 2); got[0] != 20 {
		t.Fatalf("row 2 sees uncommitted: %v", got)
	}
	if err := s.tm.Commit(open); err != nil {
		t.Fatal(err)
	}
	s.ForceMerge()
	cv = s.rangeAt(0).colVer(1)
	if got := cv.data.Get(2); got != types.EncodeInt64(222) {
		t.Fatalf("after commit+merge row2 base = %d", got)
	}
	if got := cv.data.Get(3); got != types.EncodeInt64(333) {
		t.Fatalf("after commit+merge row3 base = %d", got)
	}
}

func TestMergeAppliesDeleteTombstones(t *testing.T) {
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Delete(tx, 5); err != nil {
			t.Fatal(err)
		}
	})
	s.ForceMerge()
	r := s.rangeAt(0)
	if !r.version.Load().mergedDeleted(5) {
		t.Fatal("merged delete bit not set")
	}
	if got := r.colVer(1).data.Get(5); got != types.NullSlot {
		t.Fatalf("deleted row's merged value = %d, want ∅", got)
	}
	if _, ok := getRow(t, s, 5); ok {
		t.Fatal("deleted row readable after merge")
	}
	// Neighbors unaffected.
	if got, ok := getRow(t, s, 6); !ok || got[0] != 60 {
		t.Fatalf("row 6 = %v %v", got, ok)
	}
}

// TestReadColsTearsAcrossDeleteMerge replays the snapshot-read tear in one
// run: a reader captures its base state, the indirection word and the block
// list (the readCols load step), a delete of the row is appended, committed and
// merged, and only then does the reader walk — at a snapshot before the
// delete. The row must still be there with its real key. A walk that fell
// back to the CURRENT version's pages would read the merged delete's ∅.
func TestReadColsTearsAcrossDeleteMerge(t *testing.T) {
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	r := s.rangeAt(0)
	const slot = 5 // fillRange inserts key i into slot i
	ts := s.tm.Now()
	b := r.loadBase()
	ind := r.loadIndirection(slot)
	tails := *r.tailBlocks.Load()

	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Delete(tx, slot); err != nil {
			t.Fatal(err)
		}
	})
	s.ForceMerge()
	if !r.version.Load().mergedDeleted(slot) {
		t.Fatal("the delete did not merge")
	}

	out := make([]uint64, 2)
	res := r.walkChain(asOfView(ts), b, ind, tails, slot, []int{0, 1}, out)
	if !res.exists {
		t.Fatal("row missing at a snapshot before its delete")
	}
	if out[0] != types.EncodeInt64(slot) || out[1] != types.EncodeInt64(10*slot) {
		t.Fatalf("row at the pre-delete snapshot = (%d, %d), want key %d and A %d",
			out[0], out[1], types.EncodeInt64(slot), types.EncodeInt64(10*slot))
	}
}

func TestSnapshotReadsSurviveMerge(t *testing.T) {
	// Lemma 2: pre-image snapshot records keep originals reachable after
	// outdated base pages are discarded.
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	tsOrig := s.tm.Now()
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 8; i++ {
			if err := s.Update(tx, i, []int{1, 3}, []types.Value{types.IntValue(-1), types.IntValue(-2)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	tsNew := s.tm.Now()
	s.ForceMerge()
	for i := int64(0); i < 8; i++ {
		vals, ok, err := s.GetAt(tsOrig, i, []int{1, 3})
		if err != nil || !ok {
			t.Fatalf("GetAt orig %d: %v %v", i, ok, err)
		}
		if vals[0].Int() != 10*i || vals[1].Int() != 30*i {
			t.Fatalf("original version lost after merge: row %d = %v", i, vals)
		}
		vals, _, _ = s.GetAt(tsNew, i, []int{1, 3})
		if vals[0].Int() != -1 || vals[1].Int() != -2 {
			t.Fatalf("new version wrong after merge: row %d = %v", i, vals)
		}
	}
	// Snapshot scans reconstruct the old sum.
	sum, _ := s.ScanSum(tsOrig, 1)
	want := int64(0)
	for i := int64(0); i < 64; i++ {
		want += 10 * i
	}
	if sum != want {
		t.Fatalf("snapshot scan after merge = %d, want %d", sum, want)
	}
}

func TestIndependentColumnMergeAndTPSMismatch(t *testing.T) {
	// §4.2: different columns of the same record merge independently at
	// different points in time; the resulting TPS mismatch is detectable
	// (Lemma 3) and reads remain consistent (Theorem 2).
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 6; i++ {
			if err := s.Update(tx, i, []int{1, 3}, []types.Value{types.IntValue(100 + i), types.IntValue(300 + i)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Merge only column A.
	if n := s.MergeColumn(0, 1); n == 0 {
		t.Fatal("column merge consumed nothing")
	}
	tpsA := s.RangeTPS(0, 1)
	tpsC := s.RangeTPS(0, 3)
	if tpsA == 0 || tpsC != 0 {
		t.Fatalf("tps A=%v C=%v; want A>0, C=0", tpsA, tpsC)
	}
	if _, ok := s.CheckTPSConsistency(0); ok {
		t.Fatal("TPS mismatch not detected")
	}
	// Reads of both columns remain correct despite the mismatch.
	for i := int64(0); i < 6; i++ {
		got, _ := getRow(t, s, i)
		if got[0] != 100+i || got[2] != 300+i {
			t.Fatalf("row %d during split merge = %v", i, got)
		}
	}
	// Merging C reconciles.
	if n := s.MergeColumn(0, 3); n == 0 {
		t.Fatal("second column merge consumed nothing")
	}
	if s.RangeTPS(0, 3) != tpsA {
		t.Fatalf("C TPS %v != A TPS %v after catching up", s.RangeTPS(0, 3), tpsA)
	}
	cv := s.rangeAt(0).colVer(3)
	for i := 0; i < 6; i++ {
		if cv.data.Get(i) != types.EncodeInt64(300+int64(i)) {
			t.Fatalf("C[%d] merged wrong", i)
		}
	}
}

func TestTwoHopInvariantWithCumulativeUpdates(t *testing.T) {
	// §1: "(at most) 2-hop away access to the latest version of any record".
	// With cumulative updates, a point read needs at most the base record
	// plus one tail record.
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	for round := 0; round < 5; round++ {
		mustCommit(t, s, func(tx *txn.Txn) {
			col := 1 + round%3
			if err := s.Update(tx, 7, []int{col}, []types.Value{types.IntValue(int64(1000 + round))}); err != nil {
				t.Fatal(err)
			}
		})
	}
	r := s.rangeAt(0)
	out := make([]uint64, 3)
	res := r.readCols(latestView(nil), 7, []int{1, 2, 3}, out)
	if !res.exists {
		t.Fatal("row 7 missing")
	}
	if res.hops > 2 {
		t.Fatalf("latest read took %d hops, want <= 2 (cumulative updates)", res.hops)
	}
}

func TestNonCumulativeReadsWalkChain(t *testing.T) {
	cfg := testConfig()
	cfg.CumulativeUpdates = false
	s := newTestStore(t, cfg)
	fillRange(t, s, 64)
	// Update different columns in separate transactions: a reader must walk
	// back to assemble the record (§3.1 "readers are simply forced to walk
	// back the chain").
	for i, col := range []int{1, 2, 3} {
		mustCommit(t, s, func(tx *txn.Txn) {
			if err := s.Update(tx, 9, []int{col}, []types.Value{types.IntValue(int64(100 * (i + 1)))}); err != nil {
				t.Fatal(err)
			}
		})
	}
	got, ok := getRow(t, s, 9)
	if !ok || got[0] != 100 || got[1] != 200 || got[2] != 300 {
		t.Fatalf("non-cumulative assembly = %v %v", got, ok)
	}
	r := s.rangeAt(0)
	out := make([]uint64, 3)
	res := r.readCols(latestView(nil), 9, []int{1, 2, 3}, out)
	if res.hops < 3 {
		t.Fatalf("expected >=3 hops without cumulation, got %d", res.hops)
	}
	// After a merge the same read is 0-hop (fast path).
	s.ForceMerge()
	res = r.readCols(latestView(nil), 9, []int{1, 2, 3}, out)
	if res.hops != 0 {
		t.Fatalf("post-merge read took %d hops, want 0", res.hops)
	}
}

func TestAutoMergeWorker(t *testing.T) {
	cfg := testConfig()
	cfg.AutoMerge = true
	cfg.MergeBatch = 4
	s := newTestStore(t, cfg)
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 64; i++ {
			insertRow(t, s, tx, i, i, i, i)
		}
	})
	for round := int64(0); round < 10; round++ {
		mustCommit(t, s, func(tx *txn.Txn) {
			for i := int64(0); i < 8; i++ {
				if err := s.Update(tx, i, []int{1}, []types.Value{types.IntValue(round*100 + i)}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	// Close drains the merge queue; merges should have happened.
	s.Close()
	if s.Stats().Merges == 0 && s.Stats().Seals == 0 {
		t.Fatal("auto merge never ran")
	}
	for i := int64(0); i < 8; i++ {
		got, ok := getRow(t, s, i)
		if !ok || got[0] != 900+i {
			t.Fatalf("row %d after auto merges = %v %v", i, got, ok)
		}
	}
}

func TestRowLayoutSealMergeAndRead(t *testing.T) {
	cfg := testConfig()
	cfg.Layout = RowLayout
	s := newTestStore(t, cfg)
	fillRange(t, s, 64)
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 10; i++ {
			if err := s.Update(tx, i, []int{1}, []types.Value{types.IntValue(5000 + i)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	s.ForceMerge()
	for i := int64(0); i < 10; i++ {
		got, ok := getRow(t, s, i)
		if !ok || got[0] != 5000+i || got[1] != 20*i {
			t.Fatalf("row-layout row %d = %v %v", i, got, ok)
		}
	}
	sum, rows := s.ScanSum(s.tm.Now(), 2)
	var want int64
	for i := int64(0); i < 64; i++ {
		want += 20 * i
	}
	if sum != want || rows != 64 {
		t.Fatalf("row-layout scan = %d/%d, want %d/64", sum, rows, want)
	}
}
