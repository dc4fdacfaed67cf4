// Benchmark entry points: one testing.B benchmark per table and figure of
// the paper's evaluation (§6). Each benchmark executes its experiment at a
// reduced scale suitable for `go test -bench`; cmd/lstore-bench runs the
// same experiments with full control over scale. The printed series are the
// reproduction artifact; b.ReportMetric surfaces the headline number.
//
// Run all: go test -bench=. -benchmem
package lstore_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lstore"
	"lstore/internal/bench"
	"lstore/internal/workload"
)

// benchOptions returns the scaled-down options used under `go test -bench`.
func benchOptions() bench.Options {
	return bench.Options{
		TableSize: 16384,
		Duration:  250 * time.Millisecond,
		Threads:   []int{1, 2, 4, 8},
		RangeSize: 2048,
		Out:       os.Stdout,
	}
}

// runExperiment executes one experiment exactly once per benchmark run.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.FindExperiment(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7ScalabilityLow(b *testing.B)      { runExperiment(b, "fig7a") }
func BenchmarkFig7ScalabilityMed(b *testing.B)      { runExperiment(b, "fig7b") }
func BenchmarkFig7ScalabilityHigh(b *testing.B)     { runExperiment(b, "fig7c") }
func BenchmarkFig8ScanVsMergeBatch(b *testing.B)    { runExperiment(b, "fig8") }
func BenchmarkTable7ScanComparison(b *testing.B)    { runExperiment(b, "table7") }
func BenchmarkFig9ReadRatioLow(b *testing.B)        { runExperiment(b, "fig9a") }
func BenchmarkFig9ReadRatioMed(b *testing.B)        { runExperiment(b, "fig9b") }
func BenchmarkFig10MixedLow(b *testing.B)           { runExperiment(b, "fig10a") }
func BenchmarkFig10MixedMed(b *testing.B)           { runExperiment(b, "fig10c") }
func BenchmarkTable8RowVsColumn(b *testing.B)       { runExperiment(b, "table8") }
func BenchmarkTable9PointQueryColumns(b *testing.B) { runExperiment(b, "table9") }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the primitives (ablation-style measurements of the
// design choices DESIGN.md calls out).

// BenchmarkPointUpdate measures single-threaded short-update latency.
// Preload leaves the table merged, and the background merger is off so its
// leftover preload work cannot land in the timed loop (on one core it
// dominated both ns/op and allocs/op).
func BenchmarkPointUpdate(b *testing.B) {
	w := workload.ForContention(workload.Low, 16384)
	e, err := bench.NewLStore(w.NumCols, bench.LStoreOptions{RangeSize: 2048, DisableAutoMerge: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := e.Preload(w.TableSize, w.NumCols); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(w, 1)
	b.ReportAllocs()
	b.ResetTimer()
	committed := 0
	for i := 0; i < b.N; i++ {
		if bench.RunOneTxn(e, gen.NextTxn()) {
			committed++
		}
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "txns/s")
}

// BenchmarkScanAfterMerge measures the columnar scan fast path (everything
// consolidated, 0-hop reads).
func BenchmarkScanAfterMerge(b *testing.B) {
	b.ReportAllocs()
	benchScan(b, true)
}

// BenchmarkScanWithTailBacklog measures scans that must chase tail records
// (merge disabled — the worst case of Figure 8).
func BenchmarkScanWithTailBacklog(b *testing.B) {
	benchScan(b, false)
}

// benchScan scans on one worker so allocs/op does not depend on the host's
// core count.
func benchScan(b *testing.B, merged bool) {
	w := workload.ForContention(workload.Low, 16384)
	e, err := bench.NewLStore(w.NumCols, bench.LStoreOptions{RangeSize: 2048, DisableAutoMerge: true, ScanWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := e.Preload(w.TableSize, w.NumCols); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(w, 2)
	for i := 0; i < 2000; i++ {
		bench.RunOneTxn(e, gen.NextTxn())
	}
	if merged {
		e.Store().ForceMerge()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, rows := e.ScanSum(e.Now(), 1, w.TableSize)
		if rows == 0 {
			b.Fatalf("empty scan (sum=%d)", sum)
		}
	}
}

// BenchmarkMergeThroughput measures tail records consolidated per second by
// the merge process itself.
func BenchmarkMergeThroughput(b *testing.B) {
	w := workload.ForContention(workload.Low, 16384)
	b.ReportAllocs()
	var total float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := bench.NewLStore(w.NumCols, bench.LStoreOptions{RangeSize: 2048, DisableAutoMerge: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Preload(w.TableSize, w.NumCols); err != nil {
			b.Fatal(err)
		}
		gen := workload.NewGenerator(w, 3)
		for j := 0; j < 5000; j++ {
			bench.RunOneTxn(e, gen.NextTxn())
		}
		b.StartTimer()
		t0 := time.Now()
		n := e.Store().ForceMerge()
		total += float64(n) / time.Since(t0).Seconds()
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
	b.ReportMetric(total/float64(b.N), "tailrecs/s")
}

// BenchmarkMergeWorkers compares the background merge-scheduler pool at 1
// worker vs a GOMAXPROCS-bounded pool under an update-heavy multi-range
// workload. Reported metrics: committed update throughput and the merge lag
// (tail records the merge had not yet consumed when the writers stopped).
func BenchmarkMergeWorkers(b *testing.B) {
	pool := runtime.GOMAXPROCS(0)
	if pool > 8 {
		pool = 8
	}
	if pool < 2 {
		pool = 2 // keep the 1-vs-N comparison meaningful on 1-CPU hosts
	}
	for _, workers := range []int{1, pool} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			db := lstore.Open()
			defer db.Close()
			tbl, err := db.CreateTable("t", lstore.NewSchema("id",
				lstore.Column{Name: "id", Type: lstore.Int64},
				lstore.Column{Name: "v", Type: lstore.Int64},
			), lstore.TableOptions{RangeSize: 512, MergeBatch: 64, MergeWorkers: workers})
			if err != nil {
				b.Fatal(err)
			}
			const rows = 8192
			tx := db.Begin(lstore.ReadCommitted)
			for i := int64(0); i < rows; i++ {
				if err := tbl.Insert(tx, lstore.Row{"id": lstore.Int(i), "v": lstore.Int(0)}); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			const writers = 4
			per := b.N/writers + 1
			var committed atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < per; i++ {
						tx := db.Begin(lstore.ReadCommitted)
						if tbl.Update(tx, r.Int63n(rows), lstore.Row{"v": lstore.Int(int64(i))}) != nil {
							tx.Abort()
							continue
						}
						if tx.Commit() == nil {
							committed.Add(1)
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			st := tbl.Stats()
			b.ReportMetric(float64(committed.Load())/b.Elapsed().Seconds(), "txns/s")
			b.ReportMetric(float64(st.MergeBacklog), "lag-tailrecs")
		})
	}
}

// BenchmarkCumulativeVsChainReads is the ablation for cumulative updates
// (§3.1): multi-column point reads with the 2-hop guarantee vs chain walks.
func BenchmarkCumulativeVsChainReads(b *testing.B) {
	for _, cumulative := range []bool{true, false} {
		name := "cumulative"
		if !cumulative {
			name = "chained"
		}
		b.Run(name, func(b *testing.B) {
			db := lstore.Open()
			defer db.Close()
			tbl, err := db.CreateTable("t", lstore.NewSchema("id",
				lstore.Column{Name: "id", Type: lstore.Int64},
				lstore.Column{Name: "c1", Type: lstore.Int64},
				lstore.Column{Name: "c2", Type: lstore.Int64},
				lstore.Column{Name: "c3", Type: lstore.Int64},
			), lstore.TableOptions{
				RangeSize: 256, DisableAutoMerge: true,
				DisableCumulativeUpdates: !cumulative,
			})
			if err != nil {
				b.Fatal(err)
			}
			tx := db.Begin(lstore.ReadCommitted)
			for i := int64(0); i < 256; i++ {
				if err := tbl.Insert(tx, lstore.Row{
					"id": lstore.Int(i), "c1": lstore.Int(0), "c2": lstore.Int(0), "c3": lstore.Int(0),
				}); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			// Build 3-version chains touching different columns.
			for _, col := range []string{"c1", "c2", "c3"} {
				tx := db.Begin(lstore.ReadCommitted)
				for i := int64(0); i < 256; i++ {
					if err := tbl.Update(tx, i, lstore.Row{col: lstore.Int(i)}); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := db.Begin(lstore.ReadCommitted)
				if _, ok, err := tbl.Get(tx, int64(i%256), "c1", "c2", "c3"); err != nil || !ok {
					b.Fatalf("missing row: %v", err)
				}
				tx.Abort()
			}
		})
	}
}

// BenchmarkScanRangeCallback measures the full-table callback scan
// (Table.Scan) — the ScanRange path through the shared scan engine.
func BenchmarkScanRangeCallback(b *testing.B) {
	db := lstore.Open()
	defer db.Close()
	tbl, err := db.CreateTable("t", lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64},
		lstore.Column{Name: "v", Type: lstore.Int64},
		lstore.Column{Name: "w", Type: lstore.Int64},
	), lstore.TableOptions{RangeSize: 2048, DisableAutoMerge: true})
	if err != nil {
		b.Fatal(err)
	}
	const rows = 16384
	tx := db.Begin(lstore.ReadCommitted)
	for i := int64(0); i < rows; i++ {
		if err := tbl.Insert(tx, lstore.Row{"id": lstore.Int(i), "v": lstore.Int(i), "w": lstore.Int(-i)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	tbl.Merge()
	ts := db.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := tbl.Scan(ts, []string{"v", "w"}, func(key int64, row lstore.Row) bool {
			n++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if n != rows {
			b.Fatalf("scanned %d rows", n)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkPinnedScan measures the columnar aggregate with sealed base
// pages behind the buffer pool: the cap is ~half the encoded footprint, so
// every sweep pins a mix of resident frames and spill refaults — the
// steady-state cost of beyond-RAM base storage, against the all-resident
// BenchmarkQueryAggregate numbers.
func BenchmarkPinnedScan(b *testing.B) {
	db := lstore.Open()
	defer db.Close()
	tbl, err := db.CreateTable("t", lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64},
		lstore.Column{Name: "v", Type: lstore.Int64},
		lstore.Column{Name: "w", Type: lstore.Int64},
	), lstore.TableOptions{
		RangeSize: 2048, DisableAutoMerge: true, ScanWorkers: 1,
		Spill: lstore.NewMemSpill(), PoolBytes: 24 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	const rows = 16384
	tx := db.Begin(lstore.ReadCommitted)
	for i := int64(0); i < rows; i++ {
		if err := tbl.Insert(tx, lstore.Row{"id": lstore.Int(i), "v": lstore.Int(i), "w": lstore.Int(-i)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	tbl.Merge()
	ts := db.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tbl.Query().At(ts).Aggregate(lstore.Sum("v"), lstore.Count())
		if err != nil || res.Rows(1) != rows {
			b.Fatalf("aggregate saw %d rows (%v)", res.Rows(1), err)
		}
	}
	b.StopTimer()
	if st := tbl.Stats(); st.PoolMisses == 0 || st.PoolResidentBytes > st.PoolCapBytes {
		b.Fatalf("pool did not thrash within budget: %+v", st)
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkQueryFiltered is the acceptance benchmark for the query API:
// a selective filter (~1% of rows) through Query's predicate pushdown
// (vectorized word-skipping inside the scan engine, zero-alloc RowView
// delivery) against the same filter applied in a Table.Scan callback
// (every row materialized into a Row map, filtered caller-side).
func BenchmarkQueryFiltered(b *testing.B) {
	db, tbl, rows := queryBenchTable(b)
	defer db.Close()
	ts := db.Now()
	lo, hi := int64(rows/2), int64(rows/2+rows/100-1) // ~1% selectivity
	wantRows := hi - lo + 1

	b.Run("query-pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var n, total int64
			err := tbl.Query().Select("w").
				Where(lstore.Between("v", lstore.Int(lo), lstore.Int(hi))).At(ts).
				Rows(func(rv *lstore.RowView) bool {
					n++
					total += rv.Int("w")
					return true
				})
			if err != nil || n != wantRows {
				b.Fatalf("matched %d rows, want %d (%v)", n, wantRows, err)
			}
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("scan-callback-filter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var n, total int64
			err := tbl.Scan(ts, []string{"v", "w"}, func(key int64, row lstore.Row) bool {
				if v := row["v"].Int(); v >= lo && v <= hi {
					n++
					total += row["w"].Int()
				}
				return true
			})
			if err != nil || n != wantRows {
				b.Fatalf("matched %d rows, want %d (%v)", n, wantRows, err)
			}
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkQueryAggregate measures the filtered aggregate kernels
// (Sum/Count/Min/Max folded inside the scan engine) against the same
// aggregation done in a Table.Scan callback.
func BenchmarkQueryAggregate(b *testing.B) {
	db, tbl, rows := queryBenchTable(b)
	defer db.Close()
	ts := db.Now()
	lo, hi := int64(0), int64(rows/10) // ~10% selectivity

	b.Run("query-kernels", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := tbl.Query().
				Where(lstore.Between("v", lstore.Int(lo), lstore.Int(hi))).At(ts).
				Aggregate(lstore.Sum("w"), lstore.Count(), lstore.Min("w"), lstore.Max("w"))
			if err != nil || res.Rows(1) == 0 {
				b.Fatalf("empty aggregate (%v)", err)
			}
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("scan-callback-fold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sum, count, minV, maxV int64
			seen := false
			err := tbl.Scan(ts, []string{"v", "w"}, func(key int64, row lstore.Row) bool {
				if v := row["v"].Int(); v >= lo && v <= hi {
					w := row["w"].Int()
					sum += w
					count++
					if !seen || w < minV {
						minV = w
					}
					if !seen || w > maxV {
						maxV = w
					}
					seen = true
				}
				return true
			})
			if err != nil || count == 0 {
				b.Fatalf("empty fold (%v)", err)
			}
		}
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

// queryBenchTable preloads the filtered-query benchmark table: v ascending
// (the filter column), w a payload column, fully merged. Scans run on one
// worker so allocs/op measures the kernel, not the host's core count.
func queryBenchTable(b *testing.B) (*lstore.DB, *lstore.Table, int) {
	b.Helper()
	db := lstore.Open()
	tbl, err := db.CreateTable("t", lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64},
		lstore.Column{Name: "v", Type: lstore.Int64},
		lstore.Column{Name: "w", Type: lstore.Int64},
	), lstore.TableOptions{RangeSize: 2048, DisableAutoMerge: true, ScanWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	const rows = 16384
	tx := db.Begin(lstore.ReadCommitted)
	for i := int64(0); i < rows; i++ {
		if err := tbl.Insert(tx, lstore.Row{"id": lstore.Int(i), "v": lstore.Int(i), "w": lstore.Int(-i)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	tbl.Merge()
	return db, tbl, rows
}

// BenchmarkLookupSecondary measures secondary-index probes (Table.FindBy)
// through the scan engine's point face.
func BenchmarkLookupSecondary(b *testing.B) {
	db := lstore.Open()
	defer db.Close()
	tbl, err := db.CreateTable("t", lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64},
		lstore.Column{Name: "grp", Type: lstore.Int64},
	), lstore.TableOptions{RangeSize: 2048, DisableAutoMerge: true,
		SecondaryIndexes: []string{"grp"}})
	if err != nil {
		b.Fatal(err)
	}
	const rows = 16384
	tx := db.Begin(lstore.ReadCommitted)
	for i := int64(0); i < rows; i++ {
		if err := tbl.Insert(tx, lstore.Row{"id": lstore.Int(i), "grp": lstore.Int(i % 512)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	tbl.Merge()
	ts := db.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys, err := tbl.FindBy(ts, "grp", lstore.Int(int64(i%512)))
		if err != nil {
			b.Fatal(err)
		}
		if len(keys) != rows/512 {
			b.Fatalf("probe returned %d keys", len(keys))
		}
	}
	b.ReportMetric(float64(rows/512)*float64(b.N)/b.Elapsed().Seconds(), "probes/s")
}
