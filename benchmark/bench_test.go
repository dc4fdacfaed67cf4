package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs all four workloads small and short, both windows, and
// expects zero failures, every metric present, spans written, and each
// workload's signature: the pool misses and holds its cap, the WAL fsyncs
// under a commit, recovery replays.
func TestSmoke(t *testing.T) {
	g, err := newGen(7, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := config{workload: wl.name, seed: 7, window: 150 * time.Millisecond, trace: traceBoth, rows: g.n, dir: t.TempDir()}
			var trace bytes.Buffer
			rec, err := runWorkload(cfg, g, wl.run, envInfo{}, io.Discard, &trace)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d problems=%v", rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}
			val := func(name string) float64 {
				m, ok := rec.Metrics[name]
				if !ok || m.Value == nil {
					t.Fatalf("metric %s missing or null", name)
				}
				return *m.Value
			}
			for _, d := range perLayer {
				val(d.name)
			}
			for _, d := range endToEnd {
				if val(d.name) <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, val(d.name))
				}
			}
			positive := func(names ...string) {
				for _, n := range names {
					if val(n) <= 0 {
						t.Errorf("%s = %v, want > 0", n, val(n))
					}
				}
			}
			switch wl.name {
			case "olap-spill":
				if hit := val("pool.hit_frac"); hit <= 0 || hit >= 1 {
					t.Errorf("pool.hit_frac = %v, want inside (0,1)", hit)
				}
				positive("pool.resident_max_bytes", "spill.bytes_per_row", "index.keys_per_probe")
			case "oltp-durable":
				positive("wal.fsyncs_per_commit", "wal.fsync_us_per_txn", "recover.kops_per_s", "share.wal")
			case "serve-htap":
				positive("server.req_bytes", "ckpt.rounds")
			}
			if !strings.Contains(trace.String(), `"log":"`+wl.name+`/main-traced/client-`) {
				t.Errorf("no client spans in the trace")
			}
			line, err := json.Marshal(rec.result)
			if err != nil {
				t.Fatal(err)
			}
			var back map[string]any
			if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
				t.Errorf("contract line has keys %v (err %v), want exactly correct, attempted, failed, metrics", back, err)
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	// txn [0,100) > commit [10,90) > write [20,30), fsync [30,80); get [2,8)
	spans := []span{
		{name: spTxn, parent: -1, start: 0, end: 100},
		{name: spGet, parent: 0, start: 2, end: 8},
		{name: spCommit, parent: 0, start: 10, end: 90},
		{name: spWALWrite, parent: 2, start: 20, end: 30},
		{name: spWALSync, parent: 2, start: 30, end: 80},
	}
	want := []int64{14, 6, 20, 10, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spanNames[spans[i].name], got[i], want[i])
		}
	}
	bg := []span{{name: spSpillRead, parent: -1, start: 0, end: 1000}}
	sm := summarize([][]span{spans}, bg)
	if sm.rootBusy != 100 || len(sm.commitSelf) != 1 || sm.commitSelf[0] != 20 {
		t.Errorf("summary: rootBusy=%d commitSelf=%v, want 100 and [20]", sm.rootBusy, sm.commitSelf)
	}
	if sm.self[spSpillRead] != 0 || len(sm.durs[spSpillRead]) != 1 {
		t.Errorf("background spans must count for durations only")
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i)
		}
		return s
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{20, 0, false},      // the median at index 10 has nine beyond it
		{21, 50, true},      // ten beyond
		{200, 90, true},     // p90 at 180, 19 beyond; p99 at 198, 1 beyond
		{1000, 90, true},    // p99 at 990, nine beyond
		{1001, 99, true},    // p99 at 990, ten beyond
		{20000, 99.9, true}, // p99.9 at 19980, 19 beyond; p99.99 at 19998, 1 beyond
		{200000, 99.99, true},
	} {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || p != c.p {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", c.n, p, ok, c.p, c.ok)
		}
		if ok && c.n-int(v)-1 < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, p, c.n-int(v)-1)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	med, spread := quartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if med != 5.5 || spread != (8.25-2.75)/5.5 {
		t.Errorf("median %v spread %v, want 5.5 and 1", med, spread)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates
	if _, spread := quartileSpread([]float64{1, 2}); spread != 1 {
		t.Errorf("two samples: spread %v, want 1", spread)
	}
}

func TestJudge(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c, c, c * 1.01} }
	lower := specMetric{Name: "txn_p50_us", Better: "lower", Bound: 0.05}
	higher := specMetric{Name: "txn_per_s", Better: "higher", Bound: 0.05}
	for _, c := range []struct {
		name string
		a, b []float64
		m    specMetric
		want verdict
	}{
		{"same", steady(100), steady(100), lower, within},
		{"slower latency", steady(100), steady(110), lower, worse},
		{"faster latency", steady(100), steady(80), lower, within},
		{"lower rate", steady(100), steady(90), higher, worse},
		{"higher rate", steady(100), steady(120), higher, within},
		{"inside the bound", steady(100), steady(104), lower, within},
		{"noisy", []float64{70, 90, 100, 110, 130}, steady(100), lower, unresolved},
	} {
		if _, _, _, _, _, got := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// compare must not pass a pair it could not judge: an empty B file, a B
// made of traced runs only, or a metric gone null on one side is unresolved
// and fails the comparison.
func TestCompareUnjudged(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[{"name":"txn_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, recs ...record) string {
		path := filepath.Join(dir, name)
		for i := range recs {
			if err := appendRecord(path, &recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if len(recs) == 0 {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	rec := func(trace string, value *float64, attempted int) record {
		r := record{Workload: "w", Trace: trace, result: result{Attempted: attempted, Metrics: map[string]metricJSON{}}}
		if trace != "1" {
			r.Metrics["txn_per_s"] = metricJSON{Value: value, Unit: "1/s"}
		}
		return r
	}
	x := 100.0
	full := []record{rec("0", &x, 10), rec("0", &x, 10), rec("0", &x, 10)}
	a := write("a.jsonl", full...)
	for _, c := range []struct {
		name string
		b    string
		code int
		want string
	}{
		{"same", write("same.jsonl", full...), 0, "within"},
		{"empty", write("empty.jsonl"), 1, "unresolved"},
		{"traced only", write("traced.jsonl", rec("1", nil, 10)), 1, "unresolved"},
		{"one null", write("null.jsonl", rec("0", &x, 10), rec("0", nil, 10), rec("0", &x, 10)), 1, "unresolved"},
		{"nothing attempted", write("idle.jsonl", rec("0", &x, 0), rec("0", &x, 0), rec("0", &x, 0)), 1, "attempted nothing"},
	} {
		var out bytes.Buffer
		code := compareMain([]string{"-spec", spec, a, c.b}, &out, io.Discard)
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}

// A counter a later PR renames must read as missing and print as null,
// never break the build or pass as zero.
func TestRenamedCounter(t *testing.T) {
	c := counters{}
	if err := c.flatten("stats", struct{ Merges, Seals int }{3, 4}); err != nil {
		t.Fatal(err)
	}
	miss := missing{}
	if v, ok := c.get("stats.Merges", miss); !ok || v != 3 {
		t.Errorf("stats.Merges = %v, %v", v, ok)
	}
	if _, ok := c.get("stats.MergesRenamed", miss); ok || !miss["stats.MergesRenamed"] {
		t.Errorf("a missing counter must be reported missing")
	}
	v := values{}
	v.set("core.merges", 0, false)
	b, err := json.Marshal(metricJSON{Value: v["core.merges"], Unit: "count"})
	if err != nil || string(b) != `{"value":null,"unit":"count"}` {
		t.Errorf("missing metric encodes as %s (err %v)", b, err)
	}
}

// BENCHMARK.json and the binary's own tables must name the same metrics,
// units, directions and workloads.
func TestSpecMatches(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no ../BENCHMARK.json beside this checkout")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(sp.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if sp.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, sp.Workloads[i].Name, wl.name)
		}
	}
	same := func(kind string, spec []specMetric, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(spec), len(defs))
			return
		}
		for i, d := range defs {
			if s := spec[i]; s.Name != d.name || s.Unit != d.unit || s.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, here %+v", kind, i, s, d)
			}
		}
	}
	same("end_to_end", sp.EndToEnd, endToEnd)
	same("per_layer", sp.PerLayer, perLayer)
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
