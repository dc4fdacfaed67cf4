package bench

import (
	"strings"
	"testing"
	"time"

	"lstore/internal/txn"
	"lstore/internal/workload"
)

// tinyOptions keeps harness tests fast and deterministic-ish.
func tinyOptions() Options {
	return Options{
		TableSize: 2048,
		Duration:  50 * time.Millisecond,
		Threads:   []int{1, 2},
		RangeSize: 512,
	}
}

func preloadAll(t *testing.T, w workload.Config) []Engine {
	t.Helper()
	o := tinyOptions().withDefaults()
	var engines []Engine
	for _, k := range threeEngines {
		e, err := o.prepared(k, w)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		engines = append(engines, e)
	}
	return engines
}

// TestEnginesAgreeOnWorkloadState runs the identical deterministic op
// sequence single-threaded against all three engines; their final scans
// must agree exactly — the architectures differ in performance, never in
// answers.
func TestEnginesAgreeOnWorkloadState(t *testing.T) {
	w := workload.ForContention(workload.High, 2048)
	engines := preloadAll(t, w)
	for _, e := range engines {
		gen := workload.NewGenerator(w, 99)
		committed := 0
		for i := 0; i < 300; i++ {
			if runTxn(e, gen.NextTxn()) {
				committed++
			}
		}
		if committed != 300 {
			t.Fatalf("%s: committed %d/300 single-threaded (no conflicts possible)", e.Name(), committed)
		}
		e.Maintain()
	}
	sums := make([]int64, len(engines))
	rows := make([]int64, len(engines))
	for i, e := range engines {
		tx := e.Begin(txn.Snapshot)
		sums[i], rows[i] = e.ScanSum(tx.Begin, 1, w.TableSize)
		e.Abort(tx)
	}
	for i := 1; i < len(engines); i++ {
		if sums[i] != sums[0] || rows[i] != rows[0] {
			t.Fatalf("engine state divergence: %s=%d/%d vs %s=%d/%d",
				engines[i].Name(), sums[i], rows[i], engines[0].Name(), sums[0], rows[0])
		}
	}
}

func TestEnginesAgreeOnPointReads(t *testing.T) {
	w := workload.ForContention(workload.High, 2048)
	engines := preloadAll(t, w)
	for _, e := range engines {
		gen := workload.NewGenerator(w, 5)
		for i := 0; i < 100; i++ {
			runTxn(e, gen.NextTxn())
		}
	}
	for key := int64(0); key < 32; key++ {
		for _, e := range engines {
			tx := e.Begin(txn.ReadCommitted)
			if !e.Read(tx, key, []int{1, 5, 9}) {
				t.Fatalf("%s: key %d missing", e.Name(), key)
			}
			e.Abort(tx)
		}
	}
}

func TestRunProducesThroughput(t *testing.T) {
	w := workload.ForContention(workload.Medium, 2048)
	o := tinyOptions().withDefaults()
	e, err := o.prepared(kindLStore, w)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res := Run(RunConfig{
		Engine: e, Workload: w, UpdateThreads: 2, ScanThreads: 1,
		Duration: 100 * time.Millisecond, ReadsPerTxn: -1, WritesPerTxn: -1,
	})
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if res.TxnsPerSec <= 0 {
		t.Fatalf("throughput = %f", res.TxnsPerSec)
	}
	if res.Scans == 0 || res.ScanAvg <= 0 {
		t.Fatalf("scans = %d avg %v", res.Scans, res.ScanAvg)
	}
}

func TestRunPointReadMode(t *testing.T) {
	w := workload.ForContention(workload.Medium, 2048)
	o := tinyOptions().withDefaults()
	e, err := o.prepared(kindLStoreRow, w)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res := Run(RunConfig{
		Engine: e, Workload: w, UpdateThreads: 2, ScanThreads: 0,
		Duration: 60 * time.Millisecond, ReadsPerTxn: -1, WritesPerTxn: -1,
		PointReadPctCols: 40,
	})
	if res.Committed == 0 {
		t.Fatal("no point-read txns committed")
	}
	if res.Aborted != 0 {
		t.Fatalf("read-only txns aborted: %d", res.Aborted)
	}
}

// TestExperimentsRunAndPrint smoke-tests every experiment at tiny scale,
// checking each emits its header and at least one data row.
func TestExperimentsRunAndPrint(t *testing.T) {
	for _, e := range Experiments {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			o := tinyOptions()
			o.Duration = 30 * time.Millisecond
			o.Out = &sb
			if err := e.Run(o); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			if !strings.Contains(out, "#") {
				t.Fatalf("no header:\n%s", out)
			}
			if len(strings.Split(strings.TrimSpace(out), "\n")) < 3 {
				t.Fatalf("no data rows:\n%s", out)
			}
		})
	}
}

func TestEngineNames(t *testing.T) {
	o := tinyOptions().withDefaults()
	names := map[engineKind]string{
		kindLStore:    "L-Store",
		kindLStoreRow: "L-Store (Row)",
		kindIUH:       "In-place Update + History",
		kindDBM:       "Delta + Blocking Merge",
	}
	for k, want := range names {
		e, err := o.build(k, 10)
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != want {
			t.Fatalf("name = %q, want %q", e.Name(), want)
		}
		e.Close()
	}
}
