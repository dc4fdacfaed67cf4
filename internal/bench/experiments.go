package bench

import (
	"fmt"
	"io"
	"time"

	"lstore/internal/workload"
)

// Options scales the experiments to the host. Defaults reproduce the
// paper's shapes at laptop scale (the paper ran 10 M-row active sets on a
// 24-thread Xeon; we preserve the contention ratios and thread sweeps).
type Options struct {
	TableSize   int           // preloaded rows (default 65536)
	Duration    time.Duration // measurement window per cell (default 1s)
	Threads     []int         // update-thread grid for Figure 7
	RangeSize   int           // L-Store update range (default 4096)
	MergeBatch  int           // L-Store merge batch (default RangeSize/2)
	ScanWorkers int           // L-Store scan worker pool (0 = engine default)
	Out         io.Writer
	// Report, when non-nil, collects one Sample per measured cell for the
	// -json output of cmd/lstore-bench.
	Report *Report
}

func (o Options) withDefaults() Options {
	if o.TableSize == 0 {
		o.TableSize = 65536
	}
	if o.Duration == 0 {
		o.Duration = time.Second
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8, 16, 22}
	}
	if o.RangeSize == 0 {
		o.RangeSize = 4096
	}
	if o.MergeBatch == 0 {
		o.MergeBatch = o.RangeSize / 2
	}
	return o
}

func (o Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// engineKind identifies one architecture under test.
type engineKind int

const (
	kindLStore engineKind = iota
	kindLStoreRow
	kindIUH
	kindDBM
)

func (o Options) build(k engineKind, ncols int) (Engine, error) {
	switch k {
	case kindLStore:
		return NewLStore(ncols, LStoreOptions{RangeSize: o.RangeSize, MergeBatch: o.MergeBatch, ScanWorkers: o.ScanWorkers})
	case kindLStoreRow:
		return NewLStore(ncols, LStoreOptions{RangeSize: o.RangeSize, MergeBatch: o.MergeBatch, ScanWorkers: o.ScanWorkers, RowLayout: true})
	case kindIUH:
		return NewIUH(ncols, o.RangeSize), nil
	case kindDBM:
		return NewDBM(ncols, o.RangeSize, o.MergeBatch), nil
	}
	return nil, fmt.Errorf("bench: unknown engine kind %d", k)
}

// prepared builds and preloads an engine for w.
func (o Options) prepared(k engineKind, w workload.Config) (Engine, error) {
	e, err := o.build(k, w.NumCols)
	if err != nil {
		return nil, err
	}
	if err := e.Preload(w.TableSize, w.NumCols); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

var threeEngines = []engineKind{kindLStore, kindIUH, kindDBM}

// ---------------------------------------------------------------------------
// Figure 7: transaction throughput vs number of update threads, per
// contention level (a=low, b=medium, c=high), with one scan thread and one
// merge thread running throughout.

// Fig7 prints throughput series for the given contention level.
func Fig7(o Options, c workload.Contention) error {
	o = o.withDefaults()
	w := workload.ForContention(c, o.TableSize)
	o.printf("# Figure 7(%s): throughput (txns/s) vs update threads — active set %d of %d rows\n",
		c, w.ActiveSet, w.TableSize)
	o.printf("%-8s %14s %14s %14s\n", "threads", "L-Store", "IUH", "DBM")
	for _, threads := range o.Threads {
		row := make([]float64, len(threeEngines))
		for i, k := range threeEngines {
			e, err := o.prepared(k, w)
			if err != nil {
				return err
			}
			res := Run(RunConfig{
				Engine: e, Workload: w, UpdateThreads: threads, ScanThreads: 1,
				Duration: o.Duration, ReadsPerTxn: -1, WritesPerTxn: -1, Seed: int64(threads),
			})
			row[i] = res.TxnsPerSec
			o.record(Sample{
				Experiment: fmt.Sprintf("fig7%c", 'a'+int(c)), System: e.Name(),
				Labels:     map[string]int{"threads": threads},
				TxnsPerSec: res.TxnsPerSec,
			})
			e.Close()
		}
		o.printf("%-8d %14.0f %14.0f %14.0f\n", threads, row[0], row[1], row[2])
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figure 8: single-threaded scan execution time vs number of tail records
// processed per merge (M), with 4 and 16 update threads and one dedicated
// merge thread. Larger merge batches amortize better until the backlog
// grows; the paper's optimum is M ≈ 50% of the range size.

// Fig8 prints scan latency versus merge batch size.
func Fig8(o Options) error {
	o = o.withDefaults()
	w := workload.ForContention(workload.Low, o.TableSize)
	batches := []int{o.RangeSize / 16, o.RangeSize / 8, o.RangeSize / 4, o.RangeSize / 2, o.RangeSize}
	o.printf("# Figure 8: scan time (ms) vs tail records per merge (range size %d)\n", o.RangeSize)
	o.printf("%-12s %18s %18s\n", "merge-batch", "4 update threads", "16 update threads")
	for _, m := range batches {
		times := make([]time.Duration, 2)
		for i, threads := range []int{4, 16} {
			e, err := NewLStore(w.NumCols, LStoreOptions{RangeSize: o.RangeSize, MergeBatch: m, ScanWorkers: o.ScanWorkers})
			if err != nil {
				return err
			}
			if err := e.Preload(w.TableSize, w.NumCols); err != nil {
				e.Close()
				return err
			}
			res := Run(RunConfig{
				Engine: e, Workload: w, UpdateThreads: threads, ScanThreads: 1,
				Duration: o.Duration, ReadsPerTxn: -1, WritesPerTxn: -1, Seed: int64(m),
			})
			times[i] = res.ScanAvg
			o.record(Sample{
				Experiment: "fig8", System: e.Name(),
				Labels:      map[string]int{"merge_batch": m, "threads": threads},
				ScanMillis:  scanMS(res.ScanAvg),
				ScansPerSec: res.ScansPerSec,
			})
			e.Close()
		}
		o.printf("%-12d %18.2f %18.2f\n", m,
			float64(times[0].Microseconds())/1000, float64(times[1].Microseconds())/1000)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Table 7: single-threaded scan time for the three systems with 16
// concurrent update threads (low contention, 4 K update ranges).

// Table7 prints the scan-latency comparison.
func Table7(o Options) error {
	o = o.withDefaults()
	w := workload.ForContention(workload.Low, o.TableSize)
	o.printf("# Table 7: scan time (ms) with 16 update threads\n")
	o.printf("%-28s %12s\n", "system", "scan (ms)")
	for _, k := range threeEngines {
		e, err := o.prepared(k, w)
		if err != nil {
			return err
		}
		res := Run(RunConfig{
			Engine: e, Workload: w, UpdateThreads: 16, ScanThreads: 1,
			Duration: o.Duration, ReadsPerTxn: -1, WritesPerTxn: -1, Seed: 7,
		})
		o.printf("%-28s %12.2f\n", e.Name(), float64(res.ScanAvg.Microseconds())/1000)
		o.record(Sample{
			Experiment: "table7", System: e.Name(),
			Labels:      map[string]int{"threads": 16},
			ScanMillis:  scanMS(res.ScanAvg),
			ScansPerSec: res.ScansPerSec,
		})
		e.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figure 9: throughput vs percentage of reads in the short update
// transactions (0..100%), 16 update threads.

// Fig9 prints the read/write-ratio sweep for the given contention level.
func Fig9(o Options, c workload.Contention) error {
	o = o.withDefaults()
	w := workload.ForContention(c, o.TableSize)
	o.printf("# Figure 9(%s): throughput (txns/s) vs read %% in short txns (16 threads)\n", c)
	o.printf("%-8s %14s %14s %14s\n", "read%", "L-Store", "IUH", "DBM")
	for pct := 0; pct <= 100; pct += 20 {
		nr := pct / 10
		nw := 10 - nr
		row := make([]float64, len(threeEngines))
		for i, k := range threeEngines {
			e, err := o.prepared(k, w)
			if err != nil {
				return err
			}
			res := Run(RunConfig{
				Engine: e, Workload: w, UpdateThreads: 16, ScanThreads: 1,
				Duration: o.Duration, ReadsPerTxn: nr, WritesPerTxn: nw, Seed: int64(pct),
			})
			row[i] = res.TxnsPerSec
			o.record(Sample{
				Experiment: fmt.Sprintf("fig9%c", 'a'+int(c)), System: e.Name(),
				Labels:     map[string]int{"read_pct": pct},
				TxnsPerSec: res.TxnsPerSec,
			})
			e.Close()
		}
		o.printf("%-8d %14.0f %14.0f %14.0f\n", pct, row[0], row[1], row[2])
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figure 10: mixed workload — 17 concurrent transactions split between
// short updates and long read-only scans. (a/c) report update throughput,
// (b/d) report read-only throughput; we print both series per split.

// Fig10 prints the mixed-workload sweep for the given contention level.
func Fig10(o Options, c workload.Contention) error {
	o = o.withDefaults()
	w := workload.ForContention(c, o.TableSize)
	o.printf("# Figure 10(%s): 17 concurrent txns, update vs long-read split\n", c)
	o.printf("%-14s %36s %36s\n", "", "update txns/s", "read-only txns/s")
	o.printf("%-14s %12s %12s %12s %12s %12s %12s\n",
		"upd:scan", "L-Store", "IUH", "DBM", "L-Store", "IUH", "DBM")
	for _, scans := range []int{1, 5, 9, 13, 16} {
		updates := 17 - scans
		upd := make([]float64, len(threeEngines))
		rd := make([]float64, len(threeEngines))
		for i, k := range threeEngines {
			e, err := o.prepared(k, w)
			if err != nil {
				return err
			}
			res := Run(RunConfig{
				Engine: e, Workload: w, UpdateThreads: updates, ScanThreads: scans,
				Duration: o.Duration, ReadsPerTxn: -1, WritesPerTxn: -1, Seed: int64(scans),
			})
			upd[i] = res.TxnsPerSec
			rd[i] = res.ScansPerSec
			o.record(Sample{
				Experiment: fmt.Sprintf("fig10-%s", c), System: e.Name(),
				Labels:      map[string]int{"update_threads": updates, "scan_threads": scans},
				TxnsPerSec:  res.TxnsPerSec,
				ScansPerSec: res.ScansPerSec,
			})
			e.Close()
		}
		o.printf("%-14s %12.0f %12.0f %12.0f %12.1f %12.1f %12.1f\n",
			fmt.Sprintf("%d:%d", updates, scans), upd[0], upd[1], upd[2], rd[0], rd[1], rd[2])
	}
	return nil
}

// ---------------------------------------------------------------------------
// Table 8: scan time, L-Store (Column) vs L-Store (Row), with and without
// 16 concurrent update threads.

// Table8 prints the layout comparison for scans.
func Table8(o Options) error {
	o = o.withDefaults()
	w := workload.ForContention(workload.Low, o.TableSize)
	o.printf("# Table 8: scan time (ms), columnar vs row layout\n")
	o.printf("%-24s %16s %16s\n", "layout", "no updates", "16 upd threads")
	for _, k := range []engineKind{kindLStore, kindLStoreRow} {
		e, err := o.prepared(k, w)
		if err != nil {
			return err
		}
		// Cold scans, no updates: average of a few runs.
		var cold time.Duration
		const reps = 5
		for i := 0; i < reps; i++ {
			cold += MeasureScan(e, w)
		}
		cold /= reps
		res := Run(RunConfig{
			Engine: e, Workload: w, UpdateThreads: 16, ScanThreads: 1,
			Duration: o.Duration, ReadsPerTxn: -1, WritesPerTxn: -1, Seed: 3,
		})
		o.printf("%-24s %16.2f %16.2f\n", e.Name(),
			float64(cold.Microseconds())/1000, float64(res.ScanAvg.Microseconds())/1000)
		o.record(Sample{
			Experiment: "table8", System: e.Name(),
			Labels:     map[string]int{"threads": 0},
			ScanMillis: scanMS(cold),
		})
		o.record(Sample{
			Experiment: "table8", System: e.Name(),
			Labels:      map[string]int{"threads": 16},
			ScanMillis:  scanMS(res.ScanAvg),
			ScansPerSec: res.ScansPerSec,
		})
		e.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Table 9: point-query throughput (txns/s) vs percentage of columns read,
// columnar vs row layout. Each transaction is 10 point reads.

// Table9 prints the layout comparison for point queries.
func Table9(o Options) error {
	o = o.withDefaults()
	w := workload.ForContention(workload.Low, o.TableSize)
	o.printf("# Table 9: point-query throughput (txns/s) vs %% of columns read\n")
	o.printf("%-24s", "layout")
	pcts := []int{10, 20, 40, 80, 100}
	for _, p := range pcts {
		o.printf(" %9d%%", p)
	}
	o.printf("\n")
	for _, k := range []engineKind{kindLStore, kindLStoreRow} {
		e, err := o.prepared(k, w)
		if err != nil {
			return err
		}
		o.printf("%-24s", e.Name())
		for _, pct := range pcts {
			res := Run(RunConfig{
				Engine: e, Workload: w, UpdateThreads: 16, ScanThreads: 0,
				Duration: o.Duration, ReadsPerTxn: -1, WritesPerTxn: -1,
				PointReadPctCols: pct, Seed: int64(pct),
			})
			o.printf(" %10.0f", res.TxnsPerSec)
			o.record(Sample{
				Experiment: "table9", System: e.Name(),
				Labels:     map[string]int{"pct_cols": pct},
				TxnsPerSec: res.TxnsPerSec,
			})
		}
		o.printf("\n")
		e.Close()
	}
	return nil
}

// Experiment is one CLI-selectable experiment.
type Experiment struct {
	ID  string
	Run func(Options) error
}

// Experiments lists every experiment in paper order; "all" runs them in
// this order. fig10a and fig10c each print both series of their figure, so
// the paper's (b) and (d) panels need no id of their own.
var Experiments = []Experiment{
	{"fig7a", func(o Options) error { return Fig7(o, workload.Low) }},
	{"fig7b", func(o Options) error { return Fig7(o, workload.Medium) }},
	{"fig7c", func(o Options) error { return Fig7(o, workload.High) }},
	{"fig8", Fig8},
	{"table7", Table7},
	{"fig9a", func(o Options) error { return Fig9(o, workload.Low) }},
	{"fig9b", func(o Options) error { return Fig9(o, workload.Medium) }},
	{"fig10a", func(o Options) error { return Fig10(o, workload.Low) }},
	{"fig10c", func(o Options) error { return Fig10(o, workload.Medium) }},
	{"table8", Table8},
	{"table9", Table9},
}

// FindExperiment returns the experiment with the given id.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
