package lstore

import (
	"bytes"
	"slices"
	"testing"

	"lstore/internal/wal"
)

func intSchema() Schema {
	return NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "a", Type: Int64},
		Column{Name: "b", Type: Int64},
	)
}

// pageFrameStats counts framePageRange frames in a checkpoint image and
// returns the byte offset (within the concatenated payload stream) of the
// first one, for targeted corruption.
func pageFrameStats(t *testing.T, image []byte) (count int, rowBatches int) {
	t.Helper()
	scan := wal.ScanFrames(bytes.NewReader(image), func(payload []byte) error {
		switch payload[0] {
		case framePageRange:
			count++
		case frameRowBatch:
			rowBatches++
		}
		return nil
	})
	if scan.Reason != "clean-eof" {
		t.Fatalf("image scan: %s", scan.Reason)
	}
	return count, rowBatches
}

// TestCheckpointShipsEncodedPages: cold sealed ranges reach the checkpoint
// as verbatim encoded page frames — not re-expanded rows — restore installs
// them, and the restored table still serves compressed pages. With a
// secondary index on "a", restore re-indexes the installed pages, and index
// probes answer as they did before the checkpoint.
func TestCheckpointShipsEncodedPages(t *testing.T) {
	t.Run("unindexed", func(t *testing.T) { checkpointShipsEncodedPages(t, nil) })
	t.Run("indexed", func(t *testing.T) { checkpointShipsEncodedPages(t, []string{"a"}) })
}

func checkpointShipsEncodedPages(t *testing.T, indexes []string) {
	opts := TableOptions{RangeSize: 64, DisableAutoMerge: true, SecondaryIndexes: indexes}
	db := Open()
	tbl, err := db.CreateTable("t", intSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 300; i++ { // 4 full ranges + a live tail of 44
		if err := tbl.Insert(tx, Row{"id": Int(i), "a": Int(i % 5), "b": Int(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	tbl.Merge() // seal the 4 full ranges

	// Touch range 2 after the seal: its tail append makes it warm, so it
	// must ship as rows while ranges 0, 1 and 3 ship as page frames.
	tx = db.Begin(ReadCommitted)
	if err := tbl.Update(tx, 130, Row{"a": Int(99)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	want := tableState(t, tbl, db.Now())
	wantKeys := keysByA(t, tbl)
	if !slices.Equal(wantKeys[99], []int64{130}) {
		t.Fatalf("before checkpoint: a=99 holds keys %v, want [130]", wantKeys[99])
	}
	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 300 {
		t.Fatalf("checkpoint declares %d rows, want 300", info.Rows)
	}
	db.Close()

	pages, batches := pageFrameStats(t, ckpt.Bytes())
	if pages != 3 {
		t.Fatalf("image holds %d page frames, want 3 (cold ranges 0, 1, 3)", pages)
	}
	if batches == 0 {
		t.Fatal("image holds no row batches: the warm range and insert tail must ship as rows")
	}

	db2 := Open()
	defer db2.Close()
	tbl2, err := db2.CreateTable("t", intSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), nil); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, want, tableState(t, tbl2, db2.Now()), "restored from page frames")
	for v, keys := range keysByA(t, tbl2) {
		if !slices.Equal(keys, wantKeys[v]) {
			t.Fatalf("restored: a=%d holds keys %v, want %v", v, keys, wantKeys[v])
		}
	}

	cs := tbl2.CompressionStats()
	if cs.SealedRanges < 3 {
		t.Fatalf("restored table has %d sealed ranges, want >= 3", cs.SealedRanges)
	}
	if cs.PagesPacked+cs.PagesDict+cs.PagesRLE == 0 {
		t.Fatal("restore decayed every page to raw: encoded pages must survive the wire")
	}
	if cs.PhysicalWords >= cs.LogicalWords {
		t.Fatalf("restored footprint %d words >= logical %d: no compression survived",
			cs.PhysicalWords, cs.LogicalWords)
	}
}

// keysByA returns the sorted keys of Query().Where(Eq("a", v)).Keys() for
// every value checkpointShipsEncodedPages writes to "a".
func keysByA(t *testing.T, tbl *Table) map[int64][]int64 {
	t.Helper()
	out := map[int64][]int64{}
	for _, v := range []int64{0, 1, 2, 3, 4, 99} {
		keys, err := tbl.Query().Where(Eq("a", Int(v))).Keys()
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(keys)
		out[v] = keys
	}
	return out
}

// TestTornPageFrameFailsRestore: corruption inside a page frame — CRC-level
// or a cut mid-frame — must fail restore loudly, never install a short or
// forged range.
func TestTornPageFrameFailsRestore(t *testing.T) {
	db := Open()
	tbl, err := db.CreateTable("t", intSchema(), TableOptions{RangeSize: 64, DisableAutoMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 256; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "a": Int(i % 3), "b": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	tbl.Merge()
	var ckpt bytes.Buffer
	if _, err := db.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	db.Close()
	data := ckpt.Bytes()
	if pages, _ := pageFrameStats(t, data); pages == 0 {
		t.Fatal("precondition: image has no page frames")
	}

	// Bit-flip sweep across the back half of the image (where page frames
	// live, after the header and table frames): every mutation must either
	// fail restore or — if it lands in frame padding — restore the exact
	// original state. VerifyCheckpoint must agree in advance.
	for _, off := range []int{len(data) / 2, len(data)/2 + 97, len(data) - 30} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x10
		rep := VerifyCheckpoint(bytes.NewReader(mut))
		db2 := Open()
		if _, err := db2.CreateTable("t", intSchema(), TableOptions{RangeSize: 64, DisableAutoMerge: true}); err != nil {
			t.Fatal(err)
		}
		_, err := Recover(db2, bytes.NewReader(mut), nil)
		if err == nil {
			t.Fatalf("flip at %d restored without error", off)
		}
		if rep.Complete {
			t.Fatalf("flip at %d: VerifyCheckpoint reports complete but restore failed: %v", off, err)
		}
		db2.Close()
	}

	// Truncation mid-image: same contract as torn row frames.
	for _, cut := range []int{len(data) - 1, len(data) * 3 / 4} {
		db2 := Open()
		if _, err := db2.CreateTable("t", intSchema(), TableOptions{RangeSize: 64, DisableAutoMerge: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(db2, bytes.NewReader(data[:cut]), nil); err == nil {
			t.Fatalf("cut at %d restored without error", cut)
		}
		db2.Close()
	}
}
