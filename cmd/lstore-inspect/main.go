// lstore-inspect runs a short self-contained workload and dumps the
// storage internals it produced: per-range TPS lineage, tail backlog,
// merge/compression counters, retired pages and WAL/checkpoint LSN state.
// It is a window into the lineage architecture rather than a benchmark.
//
// With -verify it instead runs an offline integrity scan over a WAL or
// checkpoint file — frame and CRC verification, last clean commit boundary,
// torn-tail accounting — WITHOUT performing a recovery: the tool for
// deciding what a crash left behind before touching it.
//
// Usage: go run ./cmd/lstore-inspect [-rows 8192] [-updates 20000]
//
//	go run ./cmd/lstore-inspect -verify wal -path wal.log
//	go run ./cmd/lstore-inspect -verify checkpoint -path ckpt.img
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"lstore"
	"lstore/internal/wal"
)

func main() {
	var (
		rows    = flag.Int("rows", 8192, "table size")
		updates = flag.Int("updates", 20000, "update statements to run")
		rng     = flag.Int("range", 1024, "update-range size")
		pool    = flag.Int64("pool-bytes", 0, "spill sealed pages to a temp file behind a pool capped at this many bytes (0 = all resident)")
		verify  = flag.String("verify", "", "offline integrity scan: 'wal' or 'checkpoint' (requires -path; no recovery is performed)")
		path    = flag.String("path", "", "file to scan with -verify")
	)
	flag.Parse()

	if *verify != "" {
		if err := runVerify(*verify, *path); err != nil {
			log.Fatal(err)
		}
		return
	}

	sink := &wal.BufferSink{}
	db := lstore.Open(lstore.WithWAL(sink, nil))
	defer db.Close()
	opts := lstore.TableOptions{RangeSize: *rng, DisableAutoMerge: true}
	if *pool > 0 {
		dir, err := os.MkdirTemp("", "lstore-inspect")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		spill, err := lstore.OpenFileSpill(dir + "/spill.lsp")
		if err != nil {
			log.Fatal(err)
		}
		defer spill.Close()
		opts.Spill = spill
		opts.PoolBytes = *pool
	}
	tbl, err := db.CreateTable("t", lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64},
		lstore.Column{Name: "a", Type: lstore.Int64},
		lstore.Column{Name: "b", Type: lstore.Int64},
		lstore.Column{Name: "c", Type: lstore.Int64},
	), opts)
	if err != nil {
		log.Fatal(err)
	}

	tx := db.Begin(lstore.ReadCommitted)
	for i := 0; i < *rows; i++ {
		if err := tbl.Insert(tx, lstore.Row{
			"id": lstore.Int(int64(i)), "a": lstore.Int(0), "b": lstore.Int(0), "c": lstore.Int(0),
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}

	r := rand.New(rand.NewSource(1))
	cols := []string{"a", "b", "c"}
	for i := 0; i < *updates; i++ {
		tx := db.Begin(lstore.ReadCommitted)
		key := int64(r.Intn(*rows))
		if err := tbl.Update(tx, key, lstore.Row{cols[r.Intn(3)]: lstore.Int(int64(i))}); err != nil {
			tx.Abort()
			continue
		}
		if err := tx.Commit(); err != nil {
			continue
		}
		if i == *updates/2 {
			n := tbl.Merge()
			fmt.Printf("mid-run merge consolidated %d tail records\n", n)
		}
	}

	st := tbl.Stats()
	fmt.Printf("\n== storage state before final merge ==\n")
	fmt.Printf("inserts=%d updates=%d tail-records=%d\n", st.Inserts, st.Updates, st.TailRecords)
	fmt.Printf("merges=%d merged-tail-records=%d seals=%d\n", st.Merges, st.MergedTailRecords, st.Seals)
	fmt.Printf("merge-lag: backlog=%d queue-depth=%d workers=%d\n", st.MergeBacklog, st.MergeQueueDepth, st.MergeWorkers)
	fmt.Printf("pages retired=%d\n", st.PagesRetired)
	printPoolGauges(st)

	fmt.Printf("\n== per-range merge lineage (before final merge) ==\n")
	for _, rl := range tbl.Lineage() {
		fmt.Printf("range %2d sealed=%-5v tail=%-5d backlog=%-5d", rl.Range, rl.Sealed, rl.Tail, rl.Backlog)
		for c, cl := range rl.Cols {
			fmt.Printf("  col%d{cursor=%d tps=%v}", c, cl.Cursor, cl.TPS)
		}
		fmt.Println()
	}

	n := tbl.Merge()
	moved := tbl.CompressHistory()
	st = tbl.Stats()
	fmt.Printf("\n== after final merge (+%d records) and history compression (+%d versions) ==\n", n, moved)
	fmt.Printf("merges=%d merged-tail-records=%d history-passes=%d history-records=%d\n",
		st.Merges, st.MergedTailRecords, st.HistoryPasses, st.HistoryRecords)
	fmt.Printf("merge-lag: backlog=%d queue-depth=%d workers=%d\n", st.MergeBacklog, st.MergeQueueDepth, st.MergeWorkers)
	fmt.Printf("pages retired=%d\n", st.PagesRetired)
	printPoolGauges(st)

	// Durability state: log growth, then a checkpoint and the truncation it
	// unlocks — restart cost becomes checkpoint + tail, not total history.
	wi := db.WALInfo()
	fmt.Printf("\n== WAL / checkpoint state ==\n")
	fmt.Printf("before checkpoint: appended=%d flushed-lsn=%d syncs=%d log-bytes=%d\n",
		wi.Appended, wi.FlushedLSN, wi.Syncs, sink.Len())
	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: watermark-lsn=%d ts=%d tables=%d rows=%d image-bytes=%d\n",
		info.LSN, info.Time, info.Tables, info.Rows, ckpt.Len())
	if _, err := db.TruncateWAL(info.LSN); err != nil {
		log.Fatal(err)
	}
	wi = db.WALInfo()
	fmt.Printf("after truncation: truncated-to-lsn=%d retained-log-bytes=%d\n",
		wi.TruncatedLSN, sink.Len())

	sum, live, _ := tbl.Sum(db.Now(), "a")
	fmt.Printf("\nfinal: rows=%d sum(a)=%d\n", live, sum)

	// Scan-engine gauges: how many slots the columnar fast path served vs
	// the readCols chain walk, across every Sum/Scan/FindBy so far. A
	// growing slow share means update lineage is outrunning the merge.
	st = tbl.Stats()
	fmt.Printf("scan engine: workers=%d fast-slots=%d slow-slots=%d\n",
		st.ScanWorkers, st.ScanFastSlots, st.ScanSlowSlots)
	fmt.Printf("encoded scan: words-decoded=%d words-skipped=%d\n",
		st.ScanWordsDecoded, st.ScanWordsSkipped)

	// Compression state of the sealed base pages: which encodings the
	// per-column distribution analysis picked, and the footprint it bought.
	cs := tbl.CompressionStats()
	fmt.Printf("\n== sealed base-page compression ==\n")
	fmt.Printf("sealed-ranges=%d pages: raw=%d packed=%d dict=%d rle=%d\n",
		cs.SealedRanges, cs.PagesRaw, cs.PagesPacked, cs.PagesDict, cs.PagesRLE)
	fmt.Printf("logical-words=%d physical-words=%d ratio=%.2fx\n",
		cs.LogicalWords, cs.PhysicalWords, cs.Ratio())
}

// printPoolGauges reports the beyond-RAM state of the sealed base pages:
// buffer-pool hit/miss/eviction counters, the resident-byte gauge against
// the cap, and the spill directory's frame count. All zero without -pool-bytes.
func printPoolGauges(st lstore.StatsSnapshot) {
	if st.PoolCapBytes == 0 && st.SpilledPages == 0 {
		return
	}
	fmt.Printf("buffer pool: hits=%d misses=%d evictions=%d resident=%d/%d bytes\n",
		st.PoolHits, st.PoolMisses, st.PoolEvictions, st.PoolResidentBytes, st.PoolCapBytes)
	fmt.Printf("spill: pages=%d append-errors=%d\n", st.SpilledPages, st.SpillErrors)
}

// runVerify is the -verify mode: a read-only scan of a WAL or checkpoint
// file. A torn WAL tail is reported but is NOT an error (it is the normal
// artifact of a crash; recovery cuts at the last commit boundary). An
// incomplete checkpoint IS an error: restore would refuse it, and so does
// the exit status.
func runVerify(kind, path string) error {
	if path == "" {
		return fmt.Errorf("-verify %s requires -path", kind)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch kind {
	case "wal":
		rep := wal.Verify(f)
		fmt.Printf("wal %s: %d records (%d commits), LSN range [%d, %d]\n",
			path, rep.Records, rep.Commits, rep.FirstLSN, rep.LastLSN)
		fmt.Printf("clean-bytes=%d torn-bytes=%d stop-reason=%s\n",
			rep.CleanBytes, rep.TornBytes, rep.Reason)
		if rep.Commits > 0 {
			fmt.Printf("last clean commit boundary: LSN %d at byte offset %d\n",
				rep.LastCommitLSN, rep.LastCommitEnd)
			fmt.Printf("recovery would cut here, discarding %d trailing bytes\n",
				rep.CleanBytes+rep.TornBytes-rep.LastCommitEnd)
		} else {
			fmt.Printf("no commit boundary: recovery of this log yields an empty state\n")
		}
		if rep.ReadErr != nil {
			return fmt.Errorf("read error during scan: %w", rep.ReadErr)
		}
		return nil
	case "checkpoint":
		rep := lstore.VerifyCheckpoint(f)
		fmt.Printf("checkpoint %s: complete=%v frames=%d clean-bytes=%d torn-bytes=%d\n",
			path, rep.Complete, rep.Frames, rep.CleanBytes, rep.TornBytes)
		fmt.Printf("watermark-lsn=%d ts=%d tables=%d rows=%d\n",
			rep.Info.LSN, rep.Info.Time, rep.Info.Tables, rep.Info.Rows)
		if rep.ReadErr != nil {
			return fmt.Errorf("read error during scan: %w", rep.ReadErr)
		}
		if !rep.Complete {
			return fmt.Errorf("image unusable (%s): restore would refuse it", rep.Detail)
		}
		return nil
	default:
		return fmt.Errorf("-verify %q: want 'wal' or 'checkpoint'", kind)
	}
}
