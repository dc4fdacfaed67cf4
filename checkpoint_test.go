package lstore

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lstore/internal/wal"
)

func ckptSchema() Schema {
	return NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "name", Type: String},
		Column{Name: "v", Type: Int64},
	)
}

// tableState snapshots every live row of tbl as of ts.
func tableState(t *testing.T, tbl *Table, ts Timestamp) map[int64]Row {
	t.Helper()
	rows := map[int64]Row{}
	if err := tbl.Scan(ts, nil, func(key int64, row Row) bool {
		cp := Row{}
		for k, v := range row {
			cp[k] = v
		}
		rows[key] = cp
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func assertSameState(t *testing.T, want, got map[int64]Row, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for key, wrow := range want {
		grow, ok := got[key]
		if !ok {
			t.Fatalf("%s: key %d missing", label, key)
		}
		for col, wv := range wrow {
			if !wv.Equal(grow[col]) {
				t.Fatalf("%s: key %d col %s = %v, want %v", label, key, col, grow[col], wv)
			}
		}
	}
}

func mustCommit(t *testing.T, tx *Txn) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointTailRestartReplaysOnlyTail pins the acceptance criterion:
// restart from checkpoint + log replays exactly the transactions whose
// commit record lies above the watermark — every redone record has
// LSN > watermark — and the result equals the crashed state.
func TestCheckpointTailRestartReplaysOnlyTail(t *testing.T) {
	var log bytes.Buffer
	db := Open(WithWAL(&log, nil))
	tbl, err := db.CreateTable("t", ckptSchema(), TableOptions{SecondaryIndexes: []string{"v"}})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-checkpoint history: 100 inserts (one txn) + 40 update txns.
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 100; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "name": Str("n"), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	for i := int64(0); i < 40; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Update(tx, i%100, Row{"v": Int(1000 + i)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}

	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 100 || info.Tables != 1 || info.LSN == 0 {
		t.Fatalf("checkpoint info = %+v", info)
	}

	// Tail: 15 update txns, 5 inserts, 3 deletes — 23 txns, 23 ops.
	tailTxns := 0
	for i := int64(0); i < 15; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Update(tx, i, Row{"name": Str("tail"), "v": Int(-i)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		tailTxns++
	}
	for i := int64(200); i < 205; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		tailTxns++
	}
	for i := int64(90); i < 93; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Delete(tx, i); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		tailTxns++
	}
	want := tableState(t, tbl, db.Now())
	db.Close()

	// Every record recovery will redo must live above the watermark.
	records, err := wal.ReadAll(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	redo := wal.CommittedTxns(records, info.LSN)
	if len(redo) != tailTxns {
		t.Fatalf("log tail holds %d committed txns above watermark, want %d", len(redo), tailTxns)
	}
	for _, g := range redo {
		for _, op := range g.Ops {
			if op.LSN <= info.LSN {
				t.Fatalf("redo op LSN %d at or below watermark %d", op.LSN, info.LSN)
			}
		}
	}

	db2 := Open()
	defer db2.Close()
	tbl2, err := db2.CreateTable("t", ckptSchema(), TableOptions{SecondaryIndexes: []string{"v"}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Watermark != info.LSN {
		t.Fatalf("stats.Watermark = %d, want %d", stats.Watermark, info.LSN)
	}
	if stats.CheckpointRows != 100 {
		t.Fatalf("stats.CheckpointRows = %d, want 100", stats.CheckpointRows)
	}
	if stats.RedoneTxns != tailTxns || stats.RedoneOps != tailTxns {
		t.Fatalf("redone %d txns / %d ops, want %d/%d", stats.RedoneTxns, stats.RedoneOps, tailTxns, tailTxns)
	}
	if stats.SkippedTxns != 41 { // 1 insert txn + 40 update txns below watermark
		t.Fatalf("stats.SkippedTxns = %d, want 41", stats.SkippedTxns)
	}
	assertSameState(t, want, tableState(t, tbl2, db2.Now()), "checkpoint+tail restart")

	// The secondary index survived the bulk-load path too.
	keys, err := tbl2.FindBy(db2.Now(), "v", Int(-3))
	if err != nil || len(keys) != 1 || keys[0] != 3 {
		t.Fatalf("FindBy after restore = %v, %v", keys, err)
	}
}

// TestRecoverRelogsIntoNewWAL pins the satellite-2 regression: recovery
// into a DB opened WithWAL re-logs everything it applies, so
// recover → write → crash → recover round-trips on the NEW log alone with
// zero lost committed transactions.
func TestRecoverRelogsIntoNewWAL(t *testing.T) {
	var oldLog bytes.Buffer
	db := Open(WithWAL(&oldLog, nil))
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 20; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "name": Str("a"), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	var ckpt bytes.Buffer
	if _, err := db.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin(ReadCommitted)
	if err := tbl.Update(tx, 7, Row{"v": Int(777)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	db.Close()

	// First recovery, into a database with a fresh WAL attached.
	var newLog bytes.Buffer
	db2 := Open(WithWAL(&newLog, nil))
	tbl2, _ := db2.CreateTable("t", ckptSchema())
	if _, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), bytes.NewReader(oldLog.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Post-recovery work, logged to the new WAL only.
	tx = db2.Begin(ReadCommitted)
	if err := tbl2.Insert(tx, Row{"id": Int(100), "name": Str("post"), "v": Int(1)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	tx = db2.Begin(ReadCommitted)
	if err := tbl2.Delete(tx, 3); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	want := tableState(t, tbl2, db2.Now())
	db2.Close()

	// Second crash: the new log alone must rebuild everything — the
	// pre-crash history (re-logged) plus the post-recovery transactions.
	db3 := Open()
	defer db3.Close()
	tbl3, _ := db3.CreateTable("t", ckptSchema())
	stats, err := Recover(db3, nil, bytes.NewReader(newLog.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.RedoneOps == 0 {
		t.Fatal("second recovery redid nothing; first recovery logged nothing")
	}
	assertSameState(t, want, tableState(t, tbl3, db3.Now()), "recover->write->crash->recover")
}

// TestWALTruncationAfterCheckpoint: truncating at the watermark shrinks the
// log, and checkpoint + retained tail still recovers the full state.
func TestWALTruncationAfterCheckpoint(t *testing.T) {
	sink := &wal.BufferSink{}
	db := Open(WithWAL(sink, nil))
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 50; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	for i := int64(0); i < 30; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Update(tx, i, Row{"v": Int(100 + i)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}

	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	before := sink.Len()
	actual, err := db.TruncateWAL(info.LSN)
	if err != nil {
		t.Fatal(err)
	}
	if actual != info.LSN {
		t.Fatalf("truncated to %d, want watermark %d (no active txns)", actual, info.LSN)
	}
	if sink.Len() >= before {
		t.Fatalf("log did not shrink: %d -> %d bytes", before, sink.Len())
	}

	// Tail after truncation.
	for i := int64(0); i < 10; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Update(tx, i, Row{"name": Str("x")}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	want := tableState(t, tbl, db.Now())
	db.Close()

	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", ckptSchema())
	stats, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), sink.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if stats.RedoneTxns != 10 {
		t.Fatalf("redone %d txns from retained tail, want 10", stats.RedoneTxns)
	}
	assertSameState(t, want, tableState(t, tbl2, db2.Now()), "checkpoint+truncated tail")
}

// TestTruncationRespectsActiveTxns: the safe truncation point stops below
// the begin LSN of a still-open transaction, so its operation records
// survive truncation and its later commit replays completely.
func TestTruncationRespectsActiveTxns(t *testing.T) {
	sink := &wal.BufferSink{}
	db := Open(WithWAL(sink, nil))
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// Open transaction B with an operation already logged...
	txB := db.Begin(ReadCommitted)
	if err := tbl.Insert(txB, Row{"id": Int(100), "v": Int(100)}); err != nil {
		t.Fatal(err)
	}
	// ...then another committed transaction and a checkpoint.
	tx = db.Begin(ReadCommitted)
	if err := tbl.Insert(tx, Row{"id": Int(11), "v": Int(11)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	actual, err := db.TruncateWAL(info.LSN)
	if err != nil {
		t.Fatal(err)
	}
	if actual >= info.LSN {
		t.Fatalf("truncation watermark %d not bounded below open txn (checkpoint LSN %d)", actual, info.LSN)
	}
	// B commits after the checkpoint: above the watermark, ops retained.
	mustCommit(t, txB)
	want := tableState(t, tbl, db.Now())
	db.Close()

	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", ckptSchema())
	if _, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), sink.Reader()); err != nil {
		t.Fatal(err)
	}
	got := tableState(t, tbl2, db2.Now())
	if _, ok := got[100]; !ok {
		t.Fatal("straddling transaction's insert lost after truncation+recovery")
	}
	assertSameState(t, want, got, "truncation with active txn")
}

// TestTruncationRespectsCommittedStraddlers pins the subtler truncation
// bound: transaction T appends its operations BELOW the checkpoint
// watermark but its commit record lands ABOVE it (so T is in the log tail,
// not the image). If T has already committed when truncation runs, T is no
// longer active — but truncating at the watermark would still drop its
// operation records while its commit record survives, replaying T as an
// empty transaction. The safe point must stay below T's begin LSN until a
// truncation covers T's commit record.
func TestTruncationRespectsCommittedStraddlers(t *testing.T) {
	sink := &wal.BufferSink{}
	db := Open(WithWAL(sink, nil))
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// T's operations are logged before the checkpoint cut...
	txT := db.Begin(ReadCommitted)
	if err := tbl.Insert(txT, Row{"id": Int(500), "v": Int(500)}); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// ...and T COMMITS (commit LSN > watermark) before truncation runs.
	mustCommit(t, txT)
	actual, err := db.TruncateWAL(info.LSN)
	if err != nil {
		t.Fatal(err)
	}
	if actual >= info.LSN {
		t.Fatalf("truncated to %d; must stay below the committed straddler's begin (watermark %d)", actual, info.LSN)
	}
	want := tableState(t, tbl, db.Now())
	db.Close()

	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", ckptSchema())
	if _, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), sink.Reader()); err != nil {
		t.Fatal(err)
	}
	got := tableState(t, tbl2, db2.Now())
	if _, ok := got[500]; !ok {
		t.Fatal("committed straddler's insert lost: truncation dropped its op records")
	}
	assertSameState(t, want, got, "committed straddler")

	// A later checkpoint whose watermark covers T's commit record finally
	// lets truncation advance past T (the entry is pruned, not leaked).
	sink3 := &wal.BufferSink{}
	db3 := Open(WithWAL(sink3, nil))
	defer db3.Close()
	tbl3, _ := db3.CreateTable("t", ckptSchema())
	txS := db3.Begin(ReadCommitted)
	if err := tbl3.Insert(txS, Row{"id": Int(1), "v": Int(1)}); err != nil {
		t.Fatal(err)
	}
	var ck1 bytes.Buffer
	if _, err := db3.Checkpoint(&ck1); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, txS) // straddles ck1
	var ck2 bytes.Buffer
	info2, err := db3.Checkpoint(&ck2) // covers txS entirely
	if err != nil {
		t.Fatal(err)
	}
	actual2, err := db3.TruncateWAL(info2.LSN)
	if err != nil {
		t.Fatal(err)
	}
	if actual2 != info2.LSN {
		t.Fatalf("covered straddler still pins truncation: %d < %d", actual2, info2.LSN)
	}
}

// TestBackgroundCheckpointer: WithCheckpointEvery keeps fresh checkpoints
// flowing into the sink and truncates the log; latest checkpoint + retained
// log recovers the final state.
func TestBackgroundCheckpointer(t *testing.T) {
	sink := &wal.BufferSink{}
	cb := &CheckpointBuffer{}
	db := Open(WithWAL(sink, nil), WithCheckpointEvery(time.Millisecond, cb))
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 64; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	// Count rounds from here: on a loaded host both could land while the
	// load transaction is still open, and that pins truncation at 0.
	rounds := cb.Taken()
	deadline := time.Now().Add(5 * time.Second)
	for i := int64(0); ; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Update(tx, i%64, Row{"v": Int(i)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		if cb.Taken() >= rounds+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never completed two rounds")
		}
	}
	want := tableState(t, tbl, db.Now())
	db.Close() // stops the checkpointer before we snapshot the log

	img, info, ok := cb.Latest()
	if !ok {
		t.Fatal("no checkpoint retained")
	}
	if info.LSN == 0 || db.WALInfo().TruncatedLSN == 0 {
		t.Fatalf("checkpointer did not truncate: info=%+v wal=%+v", info, db.WALInfo())
	}

	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", ckptSchema())
	if _, err := Recover(db2, img, sink.Reader()); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, want, tableState(t, tbl2, db2.Now()), "background checkpoint + tail")
}

// TestCheckpointSchemaMismatchFailsRestore: restoring into a database whose
// re-created tables do not match the image errors out loudly.
func TestCheckpointSchemaMismatchFailsRestore(t *testing.T) {
	db := Open()
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	if err := tbl.Insert(tx, Row{"id": Int(1), "v": Int(1)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	var ckpt bytes.Buffer
	if _, err := db.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := Open()
	defer db2.Close()
	if _, err := db2.CreateTable("t", NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "other", Type: Int64},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), nil); err == nil {
		t.Fatal("schema mismatch not detected")
	}
}

// TestTornCheckpointFailsLoudly: unlike the log (whose torn tail is a clean
// crash cut), a torn checkpoint image must fail restore.
func TestTornCheckpointFailsLoudly(t *testing.T) {
	db := Open()
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 600; i++ { // multiple row-batch frames
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	var ckpt bytes.Buffer
	if _, err := db.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	db.Close()

	data := ckpt.Bytes()
	for _, cut := range []int{len(data) - 1, len(data) / 2, 20} {
		db2 := Open()
		if _, err := db2.CreateTable("t", ckptSchema()); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(db2, bytes.NewReader(data[:cut]), nil); err == nil {
			t.Fatalf("torn checkpoint (cut %d) restored without error", cut)
		}
		db2.Close()
	}
	// Corruption (bit flip mid-image) must also fail.
	mut := append([]byte(nil), data...)
	mut[len(mut)/3] ^= 0x40
	db2 := Open()
	defer db2.Close()
	if _, err := db2.CreateTable("t", ckptSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(db2, bytes.NewReader(mut), nil); !errors.Is(err, wal.ErrTornFrame) {
		// Corruption may also surface as a structural mismatch; any error is
		// acceptable, silence is not.
		if err == nil {
			t.Fatal("corrupt checkpoint restored without error")
		}
	}
}

// TestCheckpointWithoutWAL: a checkpoint of a WAL-less database restores on
// its own (watermark 0, no tail).
func TestCheckpointWithoutWAL(t *testing.T) {
	db := Open()
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "name": Str("s"), "v": Int(i * i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	want := tableState(t, tbl, db.Now())
	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if info.LSN != 0 {
		t.Fatalf("watermark %d without WAL", info.LSN)
	}
	db.Close()

	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", ckptSchema())
	stats, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointRows != 10 {
		t.Fatalf("restored %d rows, want 10", stats.CheckpointRows)
	}
	assertSameState(t, want, tableState(t, tbl2, db2.Now()), "checkpoint only")
}
