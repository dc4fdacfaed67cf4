package core

import (
	"testing"

	"lstore/internal/txn"
	"lstore/internal/types"
)

// This file reproduces the paper's running example (Tables 2–6) against the
// real engine: records k1..k3 in one update range, the exact update/delete
// sequence of §3.1, the merge of §4.1 (Table 4), the TPS interpretation of
// §4.2 (Table 5) and the historic compression of §4.3 (Table 6).

// paperStore builds the k1..k3 world: one sealed range containing the three
// records with initial values (a_i, b_i, c_i) encoded as i*10+digit.
func paperStore(t *testing.T, cumulative bool) *Store {
	t.Helper()
	cfg := Config{
		RangeSize:         16,
		TailBlockSize:     16,
		MergeBatch:        4,
		CumulativeUpdates: cumulative,
	}
	s, err := NewStore(testSchema(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	mustCommit(t, s, func(tx *txn.Txn) {
		// a1=11 b1=12 c1=13; a2=21 ...; values chosen so every cell is
		// distinct and recognizable.
		for k := int64(1); k <= 3; k++ {
			insertRow(t, s, tx, k, k*10+1, k*10+2, k*10+3)
		}
		// Fill the rest of the range so it can seal.
		for k := int64(4); k <= 16; k++ {
			insertRow(t, s, tx, k, 0, 0, 0)
		}
	})
	if !s.TrySeal(s.rangeAt(0)) {
		t.Fatal("seal failed")
	}
	return s
}

// TestPaperTable2UpdateDeleteSequence replays §3.1's sequence:
// t1/t2: first update of A on k2 (pre-image + new value a21)
// t3:    second update of A on k2 (a22)
// t4/t5: first update of C on k2 (pre-image + cumulative a22,c21)
// t6/t7: first update of C on k3 (pre-image + c31)
// t8:    delete of k1
func TestPaperTable2UpdateDeleteSequence(t *testing.T) {
	s := paperStore(t, true)
	r := s.rangeAt(0)

	update := func(key int64, col int, v int64) {
		mustCommit(t, s, func(tx *txn.Txn) {
			if err := s.Update(tx, key, []int{col}, []types.Value{types.IntValue(v)}); err != nil {
				t.Fatal(err)
			}
		})
	}
	update(2, 1, 211) // a21
	update(2, 1, 212) // a22
	update(2, 3, 231) // c21
	update(3, 3, 331) // c31
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Delete(tx, 1); err != nil {
			t.Fatal(err)
		}
	})

	// Tail record census: k2's first A update produced a pre-image + value
	// (2 records), second A update 1 record, first C update 2, k3's first C
	// update 2, delete = pre-image (all columns) + tombstone (2). Total 9.
	if got := r.appended.Load(); got != 9 {
		t.Fatalf("tail records = %d, want 9 (2+1+2+2+2)", got)
	}

	// The indirection of k2's base record points at the newest version,
	// which carries the cumulative (a22, c21) — 2-hop access.
	loc, _ := s.locate(r.firstRID + 1) // k2 was the 2nd insert
	ind := loc.rng.loadIndirection(loc.slot)
	if ind == 0 {
		t.Fatal("k2 indirection still ⊥")
	}
	tails := *loc.rng.tailBlocks.Load()
	rec := loc.rng.tailRecord(tails, ind)
	if a, ok := rec.value(1); !ok || a != types.EncodeInt64(212) {
		t.Fatalf("newest version A = (%d,%v), want cumulative a22", a, ok)
	}
	if c, ok := rec.value(3); !ok || c != types.EncodeInt64(231) {
		t.Fatalf("newest version C = (%d,%v), want c21", c, ok)
	}
	// Its back pointer leads to the pre-image of C whose Schema Encoding
	// carries the snapshot flag (the asterisk of Table 2).
	pre := loc.rng.tailRecord(tails, rec.back)
	if pre.enc&types.SchemaSnapshotFlag == 0 {
		t.Fatalf("expected snapshot-flagged pre-image, enc=%b", pre.enc)
	}
	if c, ok := pre.value(3); !ok || c != types.EncodeInt64(23) {
		t.Fatalf("pre-image C = (%d,%v), want original c2", c, ok)
	}

	// Visible state matches the table: k1 deleted, k2=(a22,b2,c21),
	// k3=(a3,b3,c31).
	if _, ok := getRow(t, s, 1); ok {
		t.Fatal("k1 still visible after delete")
	}
	if got, _ := getRow(t, s, 2); got[0] != 212 || got[1] != 22 || got[2] != 231 {
		t.Fatalf("k2 = %v", got)
	}
	if got, _ := getRow(t, s, 3); got[0] != 31 || got[2] != 331 {
		t.Fatalf("k3 = %v", got)
	}
}

// TestPaperTable3InsertWithConcurrentUpdates replays §3.2: inserts flow into
// table-level tail pages; updating a recently inserted (unsealed) record
// follows the regular update path.
func TestPaperTable3InsertWithConcurrentUpdates(t *testing.T) {
	cfg := Config{RangeSize: 16, TailBlockSize: 16, MergeBatch: 4, CumulativeUpdates: true}
	s, err := NewStore(testSchema(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tm := s.TxnManager()

	mustCommit(t, s, func(tx *txn.Txn) {
		for k := int64(7); k <= 9; k++ {
			insertRow(t, s, tx, k, k*10+1, k*10+2, k*10+3)
		}
	})
	r := s.rangeAt(0)
	if r.version.Load() != nil {
		t.Fatal("range sealed prematurely")
	}
	if r.insertBlock.Load() == nil {
		t.Fatal("table-level tail pages missing")
	}
	// Update k8's C (c8 -> c81) while the range is still an insert range.
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Update(tx, 8, []int{3}, []types.Value{types.IntValue(831)}); err != nil {
			t.Fatal(err)
		}
	})
	// The base record's indirection now points into regular tail pages,
	// while its values still live in the table-level tail pages.
	loc, _ := s.locate(r.firstRID + 1)
	if loc.rng.loadIndirection(loc.slot) == 0 {
		t.Fatal("k8 indirection not set")
	}
	if got, _ := getRow(t, s, 8); got[0] != 81 || got[2] != 831 {
		t.Fatalf("k8 = %v", got)
	}
	// Regular merges refuse the unsealed range (§3.2's strengthened
	// stability condition).
	if n := s.mergeRange(r, -1); n != 0 {
		t.Fatalf("merge consumed %d records from an insert range", n)
	}
	// Fill, seal, merge: everything consolidates.
	mustCommit(t, s, func(tx *txn.Txn) {
		for k := int64(10); k <= 22; k++ {
			insertRow(t, s, tx, k, 0, 0, 0)
		}
	})
	_ = tm
	s.ForceMerge()
	if got, _ := getRow(t, s, 8); got[2] != 831 {
		t.Fatalf("k8 after seal+merge = %v", got)
	}
	if cv := r.colVer(3); cv.data.Get(1) != types.EncodeInt64(831) {
		t.Fatalf("merged C[k8] = %d", cv.data.Get(1))
	}
}

// TestPaperTable4RelaxedMerge replays §4.1: consolidating the committed
// prefix brings base pages almost up to date; only the latest version of
// each record participates; the Indirection column is untouched; the
// original Start Time column is preserved and Last Updated Time populated.
func TestPaperTable4RelaxedMerge(t *testing.T) {
	s := paperStore(t, true)
	r := s.rangeAt(0)
	preMeta := r.version.Load().meta

	update := func(key int64, col int, v int64) {
		mustCommit(t, s, func(tx *txn.Txn) {
			if err := s.Update(tx, key, []int{col}, []types.Value{types.IntValue(v)}); err != nil {
				t.Fatal(err)
			}
		})
	}
	update(2, 1, 211)
	update(2, 1, 212)
	update(2, 3, 231)
	update(3, 3, 331)

	indBefore := r.loadIndirection(1)
	s.ForceMerge()
	if r.loadIndirection(1) != indBefore {
		t.Fatal("merge modified the Indirection column")
	}
	// Merged pages: k2 = (a22, b2, c21), k3 C = c31 — Table 4's result.
	if got := r.colVer(1).data.Get(1); got != types.EncodeInt64(212) {
		t.Fatalf("merged A[k2] = %d", got)
	}
	if got := r.colVer(2).data.Get(1); got != types.EncodeInt64(22) {
		t.Fatalf("merged B[k2] = %d (should be untouched original)", got)
	}
	if got := r.colVer(3).data.Get(1); got != types.EncodeInt64(231) {
		t.Fatalf("merged C[k2] = %d", got)
	}
	if got := r.colVer(3).data.Get(2); got != types.EncodeInt64(331) {
		t.Fatalf("merged C[k3] = %d", got)
	}
	// Start Time preserved, Last Updated Time populated (§4.1 step 3).
	mv := r.version.Load().meta
	if mv.startTime.Get(1) != preMeta.startTime.Get(1) {
		t.Fatal("merge clobbered the original Start Time column")
	}
	if mv.lastUpdated.Get(1) == types.NullSlot {
		t.Fatal("Last Updated Time not populated for k2")
	}
	if mv.lastUpdated.Get(5) != types.NullSlot {
		t.Fatal("Last Updated Time populated for an untouched record")
	}
	// Base Schema Encoding reflects changed columns (A and C for k2).
	if enc := mv.schemaEnc.Get(1); enc&(1<<1) == 0 || enc&(1<<3) == 0 || enc&(1<<2) != 0 {
		t.Fatalf("base schema encoding = %b", enc)
	}
}

// TestPaperTable5TPSInterpretation replays §4.2: after a merge with TPS t7,
// a reader holding pre-merge pages (TPS 0) must consult tail records, while
// a reader of merged pages needs only the cumulative tail record — and both
// reconstruct the same record.
func TestPaperTable5TPSInterpretation(t *testing.T) {
	s := paperStore(t, true)
	r := s.rangeAt(0)

	update := func(key int64, col int, v int64) {
		mustCommit(t, s, func(tx *txn.Txn) {
			if err := s.Update(tx, key, []int{col}, []types.Value{types.IntValue(v)}); err != nil {
				t.Fatal(err)
			}
		})
	}
	update(2, 1, 211)
	update(2, 1, 212)
	update(2, 3, 231)

	// Hold the pre-merge version (a reader that loaded pages before the
	// pointer swap).
	oldA := r.colVer(1)
	oldC := r.colVer(3)
	s.ForceMerge()
	newA := r.colVer(1)

	// Post-merge updates (the t9..t12 of Table 5).
	update(2, 2, 221) // b21
	update(2, 1, 213) // a23 (cumulative carries b21)

	// Reader A: pre-merge pages, TPS 0 — must walk tail records for A.
	if oldA.tps != 0 || oldC.tps != 0 {
		t.Fatalf("pre-merge TPS = %v/%v", oldA.tps, oldC.tps)
	}
	if oldA.data.Get(1) != types.EncodeInt64(21) {
		t.Fatal("pre-merge page should hold the original a2")
	}
	// Reader B: merged pages with advanced TPS already reflect a22.
	if newA.tps == 0 {
		t.Fatal("merged TPS not advanced")
	}
	if newA.data.Get(1) != types.EncodeInt64(212) {
		t.Fatal("merged page should hold a22")
	}
	// Both arrive at the same current record through the engine.
	got, _ := getRow(t, s, 2)
	if got[0] != 213 || got[1] != 221 || got[2] != 231 {
		t.Fatalf("k2 = %v, want (a23,b21,c21)", got)
	}
	// The indirection value is interpretable against both TPS values: it
	// exceeds the merged TPS, so even merged-page readers follow it.
	ind := r.loadIndirection(1)
	if ind <= newA.tps {
		t.Fatalf("indirection %v not beyond merged TPS %v", ind, newA.tps)
	}
}

// TestPaperTable6HistoricCompression replays §4.3: merged tail records are
// re-organized per base record with versions inlined and delta-compressed,
// originals retired, and historic (time-travel) queries still answered.
func TestPaperTable6HistoricCompression(t *testing.T) {
	s := paperStore(t, true)
	update := func(key int64, col int, v int64) types.Timestamp {
		mustCommit(t, s, func(tx *txn.Txn) {
			if err := s.Update(tx, key, []int{col}, []types.Value{types.IntValue(v)}); err != nil {
				t.Fatal(err)
			}
		})
		return s.tm.Now()
	}
	ts0 := s.tm.Now()
	tsA21 := update(2, 1, 211)
	tsA22 := update(2, 1, 212)
	tsC21 := update(2, 3, 231)
	update(3, 3, 331)
	// Pad with more updates so whole tail blocks (16 records) fill: 8 so
	// far; 8 more single-record updates brings block 0 to 16.
	for i := 0; i < 8; i++ {
		update(4, 1, int64(1000+i))
	}
	s.ForceMerge()
	moved := s.CompressHistory()
	if moved == 0 {
		t.Fatal("history compression moved nothing")
	}
	r := s.rangeAt(0)
	if r.histUpto.Load() == 0 {
		t.Fatal("histUpto not advanced")
	}
	if s.HistoryRecords(0) == 0 {
		t.Fatal("no records in history store")
	}
	if (*r.tailBlocks.Load())[0] != nil {
		t.Fatal("the compacted first tail block is still in the block list")
	}

	// Time travel across the compression boundary: every intermediate
	// version of k2 is still reachable (version inlining preserves them).
	check := func(ts types.Timestamp, wantA, wantC int64) {
		t.Helper()
		vals, ok, err := s.GetAt(ts, 2, []int{1, 3})
		if err != nil || !ok {
			t.Fatalf("GetAt(%d): %v %v", ts, ok, err)
		}
		if vals[0].Int() != wantA || vals[1].Int() != wantC {
			t.Fatalf("GetAt(%d) = %v, want A=%d C=%d", ts, vals, wantA, wantC)
		}
	}
	check(ts0, 21, 23)     // originals via inlined pre-images
	check(tsA21, 211, 23)  // a21
	check(tsA22, 212, 23)  // a22
	check(tsC21, 212, 231) // a22 + c21
	// Latest reads never touch history (they stop at TPS).
	if got, _ := getRow(t, s, 2); got[0] != 212 || got[2] != 231 {
		t.Fatalf("latest k2 = %v", got)
	}
	if s.Stats().HistoryPasses == 0 {
		t.Fatal("history pass not counted")
	}
}

// TestHistoricCompressionWithDeletes verifies tombstones survive into the
// history store so time travel sees deletion correctly.
func TestHistoricCompressionWithDeletes(t *testing.T) {
	s := paperStore(t, true)
	tsAlive := s.tm.Now()
	mustCommit(t, s, func(tx *txn.Txn) {
		if err := s.Delete(tx, 1); err != nil {
			t.Fatal(err)
		}
	})
	tsDead := s.tm.Now()
	// Pad to a full block: delete produced 2 records; 14 more needed.
	for i := 0; i < 14; i++ {
		mustCommit(t, s, func(tx *txn.Txn) {
			if err := s.Update(tx, 4, []int{1}, []types.Value{types.IntValue(int64(i))}); err != nil {
				t.Fatal(err)
			}
		})
	}
	s.ForceMerge()
	if s.CompressHistory() == 0 {
		t.Fatal("nothing compressed")
	}
	if v, ok, _ := s.GetAt(tsAlive, 1, []int{1}); !ok || v[0].Int() != 11 {
		t.Fatalf("pre-delete read via history = %v %v", v, ok)
	}
	if _, ok, _ := s.GetAt(tsDead, 1, []int{1}); ok {
		t.Fatal("deleted record visible post-delete via history")
	}
}
