package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one metric. BENCHMARK.json repeats name, unit and
// direction (and, for end-to-end metrics, the bound); a test keeps the two
// in step. README.md has the glossary.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"txn_per_s", "1/s", "higher"},
	{"txn_p50_us", "us", "lower"},
	{"query_per_s", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
}

// perLayer is grouped by layer = module. A metric reads 0 on a workload
// where its layer is idle or where the quantity cannot be seen from outside.
var perLayer = []metricDef{
	// lstore root: db.go commit path, plan.go/query.go
	{"api.begin_us", "us", "lower"},
	{"api.get_us", "us", "lower"},
	{"api.update_us", "us", "lower"},
	{"api.commit_us", "us", "lower"},
	{"api.commit_self_us", "us", "lower"},
	{"api.query_us.full_agg", "us", "lower"},
	{"api.query_us.range_agg", "us", "lower"},
	{"api.query_us.full_sum", "us", "lower"},
	{"api.query_us.clustered_sum", "us", "lower"},
	{"api.query_us.shuffled_rows", "us", "lower"},
	// internal/wal
	{"wal.write_us_per_txn", "us", "lower"},
	{"wal.fsync_us_per_txn", "us", "lower"},
	{"wal.bytes_per_txn", "B", "lower"},
	{"wal.fsyncs_per_commit", "ratio", "lower"},
	{"wal.commits_per_batch", "ratio", "higher"},
	{"recover.kops_per_s", "k/s", "higher"},
	// internal/core write + merge
	{"core.merges", "count", "higher"},
	{"core.merged_tail_records", "count", "higher"},
	{"core.merge_backlog_max", "count", "lower"},
	{"core.ww_conflicts", "count", "lower"},
	{"core.interference_txn", "ratio", "higher"},
	{"core.interference_query", "ratio", "higher"},
	// internal/core scan engine
	{"core.slow_slot_frac", "ratio", "lower"},
	{"core.slots_per_query", "count", "lower"},
	// internal/page + internal/compress
	{"page.words_skipped_frac", "ratio", "higher"},
	{"page.encoded_bytes_per_row", "B", "lower"},
	{"page.setup_encode_share", "ratio", "lower"},
	// internal/bufpool
	{"pool.hit_frac", "ratio", "higher"},
	{"pool.evictions_per_query", "count", "lower"},
	{"pool.miss_read_us", "us", "lower"},
	{"pool.miss_bytes_per_query", "B", "lower"},
	{"pool.resident_max_bytes", "B", "lower"},
	// internal/index
	{"index.probe_us", "us", "lower"},
	{"index.keys_per_probe", "count", "higher"},
	// internal/server
	{"server.txn_overhead_us", "us", "lower"},
	{"server.query_overhead_us", "us", "lower"},
	{"server.req_bytes", "B", "lower"},
	{"server.resp_bytes", "B", "lower"},
	{"server.shed", "count", "lower"},
	// checkpoint (root checkpoint.go)
	{"ckpt.rounds", "count", "higher"},
	{"ckpt.round_ms", "ms", "lower"},
	{"ckpt.image_bytes", "B", "lower"},
	{"ckpt.stall_ratio", "ratio", "lower"},
	// process
	{"proc.cpu_us_per_txn", "us", "lower"},
	{"proc.cpu_ms_per_query", "ms", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.rss_max_bytes", "B", "lower"},
	{"store.resident_bytes_per_row", "B", "lower"},
	{"spill.bytes_per_row", "B", "lower"},
	// the trace itself
	{"share.engine", "ratio", "lower"},
	{"share.wal", "ratio", "lower"},
	{"share.spill_read", "ratio", "lower"},
	{"share.wire", "ratio", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
}

// values maps metric name to value; nil is a metric whose counter went
// missing (printed and encoded as null).
type values map[string]*float64

func (v values) set(name string, x float64, ok ...bool) {
	for _, o := range ok {
		if !o {
			v[name] = nil
			return
		}
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = 0
	}
	v[name] = &x
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// roleTotals merges a role's untraced tallies over the phases that ran it.
func roleTotals(ro role, phases ...measured) (st opStats, secs float64) {
	for _, m := range phases {
		if w := m.un; w != nil && w.clients[ro] > 0 {
			st.merge(w.ops[ro])
			secs += w.secs
		}
	}
	return st, secs
}

// endToEndValues come from untraced windows only.
func (r *run) endToEndValues() values {
	v := values{}
	setup, _ := quartileSpread(r.setupSecs)
	v.set("setup_s", setup)
	txn, txnSecs := roleTotals(roleTxn, r.main, r.probe)
	qry, qrySecs := roleTotals(roleQuery, r.main, r.probe)
	v.set("txn_per_s", div(float64(txn.ok()), txnSecs))
	v.set("txn_p50_us", txn.typicalLatency()/1e3)
	v.set("query_per_s", div(float64(qry.ok()), qrySecs))
	v.set("query_p50_ms", qry.typicalLatency()/1e6)
	return v
}

// layerValues come from the traced windows, the gauge deltas around them,
// and set-up.
func (r *run) layerValues() values {
	s := r.s
	v := values{}
	for _, d := range perLayer {
		v.set(d.name, 0)
	}
	w := r.main.tr
	if w == nil {
		return v
	}
	served := s.srv != nil
	n := float64(r.g.n)
	delta := func(name string) (float64, bool) { return w.delta(name, r.miss) }
	txns := float64(w.ops[roleTxn].ok() + w.direct[roleTxn].ok())
	queries := float64(w.ops[roleQuery].ok() + w.direct[roleQuery].ok())

	// lstore root: spans around the public calls, both traced phases.
	sums := []*spanSummary{w.sum}
	if r.probe.tr != nil {
		sums = append(sums, r.probe.tr.sum)
	}
	durs := func(name spanName) (out []int64) {
		for _, sm := range sums {
			out = append(out, sm.durs[name]...)
		}
		return out
	}
	v.set("api.begin_us", medianOf(durs(spBegin))/1e3)
	v.set("api.get_us", medianOf(durs(spGet))/1e3)
	v.set("api.update_us", medianOf(durs(spUpdate))/1e3)
	v.set("api.commit_us", medianOf(durs(spCommit))/1e3)
	var commitSelf []int64
	shapeDur := map[uint8][]int64{}
	for _, sm := range sums {
		commitSelf = append(commitSelf, sm.commitSelf...)
		for sh, d := range sm.queryDur {
			shapeDur[sh] = append(shapeDur[sh], d...)
		}
	}
	v.set("api.commit_self_us", medianOf(commitSelf)/1e3)
	for sh := shape(0); sh < numShapes; sh++ {
		if sh == shIndexedKeys {
			v.set("index.probe_us", medianOf(shapeDur[uint8(sh)])/1e3)
		} else {
			v.set("api.query_us."+shapeNames[sh], medianOf(shapeDur[uint8(sh)])/1e3)
		}
	}
	v.set("index.keys_per_probe", r.x.keysPerProbe)

	// internal/wal: the sink wrapper where the benchmark owns the sink, the
	// log's own counters everywhere.
	if s.wal != nil {
		ns, _ := delta("sink.wal.write.ns")
		v.set("wal.write_us_per_txn", div(ns/1e3, txns))
		ns, _ = delta("sink.wal.fsync.ns")
		v.set("wal.fsync_us_per_txn", div(ns/1e3, txns))
		b, _ := delta("sink.wal.write.bytes")
		v.set("wal.bytes_per_txn", div(b, txns))
	}
	syncs, batches := "wal.Syncs", "wal.GroupBatches"
	if served {
		syncs, batches = "http.wal.syncs", "http.wal.group_batches"
	}
	if att, ok := w.c1.get("wal.Attached", r.miss); ok && att == 1 {
		d, ok := delta(syncs)
		v.set("wal.fsyncs_per_commit", div(d, txns), ok)
		d, ok = delta(batches)
		v.set("wal.commits_per_batch", div(txns, d), ok)
	}
	v.set("recover.kops_per_s", div(r.x.recoverOps/1e3, r.x.recoverSecs))

	// internal/core
	d, ok := delta("stats.Merges")
	v.set("core.merges", d, ok)
	d, ok = delta("stats.MergedTailRecords")
	v.set("core.merged_tail_records", d, ok)
	v.set("core.merge_backlog_max", w.gaugeMax["stats.MergeBacklog"])
	d, ok = delta("stats.WWConflicts")
	v.set("core.ww_conflicts", d, ok)
	if r.x.soloTxnRate > 0 {
		v.set("core.interference_txn", div(r.main.un.rate(roleTxn), r.x.soloTxnRate))
		v.set("core.interference_query", div(r.main.un.rate(roleQuery), r.x.soloQueryRate))
	}
	fast, ok1 := delta("stats.ScanFastSlots")
	slow, ok2 := delta("stats.ScanSlowSlots")
	v.set("core.slow_slot_frac", div(slow, fast+slow), ok1, ok2)
	v.set("core.slots_per_query", div(fast+slow, queries), ok1, ok2)

	// internal/page + internal/compress
	skipped, ok1 := delta("stats.ScanWordsSkipped")
	decoded, ok2 := delta("stats.ScanWordsDecoded")
	v.set("page.words_skipped_frac", div(skipped, skipped+decoded), ok1, ok2)
	v.set("page.encoded_bytes_per_row", s.info.encodedBytes/n, s.info.encodedBytes >= 0)
	v.set("page.setup_encode_share", div(s.info.encodeWait.Seconds(), s.info.total.Seconds()))

	// internal/bufpool
	if s.spill != nil {
		hits, ok1 := delta("stats.PoolHits")
		misses, ok2 := delta("stats.PoolMisses")
		v.set("pool.hit_frac", div(hits, hits+misses), ok1, ok2)
		d, ok = delta("stats.PoolEvictions")
		v.set("pool.evictions_per_query", div(d, queries), ok)
		ns, _ := delta("sink.spill.read.ns")
		calls, _ := delta("sink.spill.read.calls")
		v.set("pool.miss_read_us", div(ns/1e3, calls))
		b, _ := delta("sink.spill.read.bytes")
		v.set("pool.miss_bytes_per_query", div(b, queries))
		v.set("pool.resident_max_bytes", w.gaugeMax["stats.PoolResidentBytes"])
		v.set("spill.bytes_per_row", float64(s.info.footprint)/n)
	}

	// internal/server: every directEvery-th traced request went to Store.DB
	// instead of the wire; the overhead is the paired difference of medians.
	txnOver, qryOver := 0.0, 0.0
	if served {
		txnOver = w.ops[roleTxn].pairedOverhead(w.direct[roleTxn])
		qryOver = w.ops[roleQuery].pairedOverhead(w.direct[roleQuery])
		v.set("server.txn_overhead_us", txnOver/1e3)
		v.set("server.query_overhead_us", qryOver/1e3)
		v.set("server.req_bytes", r.x.reqBytes)
		v.set("server.resp_bytes", r.x.respBytes)
		a, ok1 := delta("http.admission.txn_shed")
		b, ok2 := delta("http.admission.query_shed")
		c, ok3 := delta("http.admission.overload_shed")
		v.set("server.shed", a+b+c, ok1, ok2, ok3)
	}

	// checkpoint: the rounds inside the window, or the set-up round where
	// no checkpointer runs.
	if s.ckpt != nil {
		rounds := s.roundsIn(w)
		if s.ckptEvery == 0 {
			v.set("ckpt.rounds", 1)
			v.set("ckpt.round_ms", float64(s.info.ckpt.Milliseconds()))
			if all := s.ckpt.all(); len(all) > 0 {
				v.set("ckpt.image_bytes", float64(all[0].bytes))
			}
		} else if len(rounds) > 0 {
			v.set("ckpt.rounds", float64(len(rounds)))
			var ms []int64
			for _, rd := range rounds {
				ms = append(ms, rd.end-rd.start)
			}
			v.set("ckpt.round_ms", medianOf(ms)/1e6)
			v.set("ckpt.image_bytes", float64(rounds[len(rounds)-1].bytes))
			var in, out []int64
			for _, sp := range w.txnRoots {
				inside := false
				for _, rd := range rounds {
					inside = inside || (sp.start >= rd.start && sp.start < rd.end)
				}
				if inside {
					in = append(in, sp.dur())
				} else {
					out = append(out, sp.dur())
				}
			}
			v.set("ckpt.stall_ratio", div(medianOf(in), medianOf(out)))
		}
	}

	// process
	cpu, _ := delta("proc.cpu_ns")
	switch {
	case w.clients[roleQuery] == 0:
		v.set("proc.cpu_us_per_txn", div(cpu/1e3, txns))
	case w.clients[roleTxn] == 0:
		v.set("proc.cpu_ms_per_query", div(cpu/1e6, queries))
	}
	d, _ = delta("proc.mallocs")
	v.set("proc.allocs_per_op", div(d, txns+queries))
	d, _ = delta("proc.gc_pause_ns")
	v.set("proc.gc_pause_ms", d/1e6)
	v.set("proc.rss_max_bytes", float64(sampleProc().maxRSSKB)*1024)
	v.set("store.resident_bytes_per_row", float64(s.info.heapBytes)/n)

	// The trace itself: where the clients' request time went, and what
	// recording it cost.
	busy := float64(w.sum.rootBusy)
	wal := float64(w.sum.self[spWALWrite] + w.sum.self[spWALSync])
	spillNS := 0.0
	if s.spill != nil {
		spillNS, _ = delta("sink.spill.read.ns")
	}
	wire := txnOver*float64(w.ops[roleTxn].ok()) + qryOver*float64(w.ops[roleQuery].ok())
	v.set("share.wal", div(wal, busy))
	v.set("share.spill_read", div(spillNS, busy))
	v.set("share.wire", div(wire, busy))
	v.set("share.engine", max(0, 1-div(wal+spillNS+wire, busy)))
	primary := roleTxn
	if w.clients[roleTxn] == 0 {
		primary = roleQuery
	}
	v.set("trace_overhead_frac", 1-div(w.rate(primary), r.main.un.rate(primary)))
	return v
}

// roundsIn estimates the checkpoint rounds that ran inside w. The sink
// wrapper sees only the tail of a round — the image going to disk — so a
// round's start is taken as the checkpointer's tick before it (ticks fall
// every ckptEvery from ckptFrom), or the previous round's end if later.
func (s *store) roundsIn(w *window) []ckptRound {
	var out []ckptRound
	prevEnd := int64(0)
	for _, rd := range s.ckpt.all() {
		sinkStart := rd.start
		if s.ckptEvery > 0 && sinkStart > s.ckptFrom {
			every := int64(s.ckptEvery)
			rd.start = max(s.ckptFrom+(sinkStart-s.ckptFrom)/every*every, prevEnd)
		}
		prevEnd = rd.end
		if sinkStart >= w.start && rd.end <= w.end {
			out = append(out, rd)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Printing

func printValues(out io.Writer, title string, defs []metricDef, v values) {
	fmt.Fprintf(out, "\n%s\n", title)
	for _, d := range defs {
		x, ok := v[d.name]
		switch {
		case !ok:
			continue
		case x == nil:
			fmt.Fprintf(out, "  %-32s %16s %-6s\n", d.name, "null", d.unit)
		default:
			fmt.Fprintf(out, "  %-32s %16.4f %-6s (%s is better)\n", d.name, *x, d.unit, d.better)
		}
	}
}

// printDiagnostics prints what is measured but carries no bound: the tail
// percentile each sample supports, the per-window tallies, the solo rates.
func (r *run) printDiagnostics(out io.Writer) {
	fmt.Fprintf(out, "\ndiagnostics (no bound)\n")
	fmt.Fprintf(out, "  set-up times: %s s\n", joinFloats(r.setupSecs))
	for _, w := range r.windows {
		for ro, name := range []string{"txn", "query"} {
			st := w.ops[ro]
			if w.clients[ro] == 0 {
				continue
			}
			line := fmt.Sprintf("  %-18s %-5s clients=%d %.2fs attempted=%d failed=%d rate=%.1f/s p50=%.1fus",
				w.label, name, w.clients[ro], w.secs, st.attempted, st.failed, w.rate(role(ro)), medianOf(st.lat)/1e3)
			if p, val, ok := tailPercentile(sortedCopy(st.lat)); ok && p > 50 {
				line += fmt.Sprintf(" p%g=%.1fus (n=%d)", p, float64(val)/1e3, len(st.lat))
			}
			fmt.Fprintln(out, line)
		}
	}
	if r.x.recoverSecs > 0 {
		fmt.Fprintf(out, "  recover.kops_per_s %.4f k/s (%.0f tail operations in %.3fs; per-layer, printed on every run)\n",
			div(r.x.recoverOps/1e3, r.x.recoverSecs), r.x.recoverOps, r.x.recoverSecs)
	}
	if r.main.tr != nil {
		sm := r.main.tr.sum
		fmt.Fprintf(out, "  self time by span, main traced window (share of %.2fs request time):\n", float64(sm.rootBusy)/1e9)
		for name := spanName(0); name < numSpanNames; name++ {
			if len(sm.durs[name]) > 0 {
				fmt.Fprintf(out, "    %-14s n=%-9d self=%8.3fs (%5.1f%%) p50=%.1fus\n", spanNames[name], len(sm.durs[name]),
					float64(sm.self[name])/1e9, 100*div(float64(sm.self[name]), float64(sm.rootBusy)), sm.medianUS(name))
			}
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  FAILED: %s\n", p)
	}
	if len(r.miss) > 0 {
		names := make([]string, 0, len(r.miss))
		for n := range r.miss {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "  missing counters: %s\n", strings.Join(names, ", "))
	}
}

func joinFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
