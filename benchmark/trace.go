package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing from outside: one span around every public call the benchmark
// makes and every call the engine makes into a sink the benchmark handed
// it. Spans of one transaction or query share a request id. Nothing in the
// engine is instrumented; spans inside the program are a later change.

type spanName uint8

const (
	spTxn spanName = iota // root: one embedded transaction
	spBegin
	spGet
	spUpdate
	spCommit
	spQuery     // root: one embedded query; arg = shape
	spHTTPTxn   // root: one POST /v1/txn round trip
	spHTTPQuery // root: one POST /v1/query round trip; arg = shape
	spWALWrite
	spWALSync
	spSpillRead
	spSpillAppend
	spCkptSink
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"txn", "api.begin", "api.get", "api.update", "api.commit", "api.query",
	"http.txn", "http.query", "wal.write", "wal.fsync", "spill.read",
	"spill.append", "ckpt.sink",
}

type span struct {
	name   spanName
	arg    uint8 // query shape for query roots
	parent int32 // index into the same tracer's spans; -1 for a root
	req    uint32
	start  int64 // ns since the run's epoch
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

var epoch = time.Now()

func nanos() int64 { return int64(time.Since(epoch)) }

// tracer is one goroutine's span log. A client's tracer is touched only by
// its own goroutine — sink calls the engine makes while that goroutine is
// inside a public call (a commit leading a WAL flush) land here too, as
// children of the open span. It records nothing while off.
type tracer struct {
	on    bool
	req   uint32
	cur   int32 // innermost open span, -1 when none
	spans []span
}

func (t *tracer) begin(name spanName, arg uint8) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, arg: arg, parent: t.cur, req: t.req, start: nanos()})
	t.cur = int32(len(t.spans) - 1)
	return t.cur
}

func (t *tracer) end(idx int32) {
	if idx < 0 {
		return
	}
	s := &t.spans[idx]
	s.end = nanos()
	t.cur = s.parent
}

// traceCtl routes sink spans. WAL calls run on the goroutine of the
// committer that leads the flush, inside its Commit, and become children of
// that client's open span — which is how api.commit_self_us can exclude
// them. Everything else (spill reads and appends, checkpoint images) mostly
// runs on the engine's own goroutines — scan workers, merge, checkpointer —
// and goes to the shared background log with no parent.
type traceCtl struct {
	on   atomic.Bool
	byG  sync.Map // goroutine id -> *tracer
	bgMu sync.Mutex
	bg   []span // guarded by bgMu; parent -1, req 0
}

func (tc *traceCtl) register(t *tracer) func() {
	id := goid()
	tc.byG.Store(id, t)
	return func() { tc.byG.Delete(id) }
}

func (tc *traceCtl) sinkSpan(name spanName, start, end int64) {
	if !tc.on.Load() {
		return
	}
	if name == spWALWrite || name == spWALSync {
		if v, ok := tc.byG.Load(goid()); ok {
			t := v.(*tracer)
			if t.on {
				t.spans = append(t.spans, span{name: name, parent: t.cur, req: t.req, start: start, end: end})
			}
			return
		}
	}
	tc.bgMu.Lock()
	tc.bg = append(tc.bg, span{name: name, parent: -1, start: start, end: end})
	tc.bgMu.Unlock()
}

// goid parses the current goroutine's id out of its stack header
// ("goroutine 123 [running]:"). It costs microseconds, which is why only
// WAL calls — one per commit batch, beside an fsync — pay it.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, ch := range buf[len("goroutine "):n] {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + uint64(ch-'0')
	}
	return id
}

// selfTimes returns each span's duration minus the part its children cover.
// Children of one span never overlap here: a tracer is one goroutine.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// spanSummary aggregates one window's spans by name.
type spanSummary struct {
	durs     [numSpanNames][]int64 // per name, unsorted
	queryDur map[uint8][]int64     // embedded + HTTP query roots, per shape
	self     [numSpanNames]int64   // Σ self time per name, client goroutines only
	// commitSelf is, per api.commit span, its duration minus the WAL spans
	// under it: the engine's commit work plus the wait for another
	// committer's flush.
	commitSelf []int64
	rootBusy   int64 // Σ root durations: the clients' request time
}

// summarize folds the clients' logs, and the background log for durations
// only: self time is a share of the clients' request time, and a sink call
// on an engine goroutine is nobody's request.
func summarize(clients [][]span, bg []span) *spanSummary {
	sm := &spanSummary{queryDur: map[uint8][]int64{}}
	for _, s := range bg {
		sm.durs[s.name] = append(sm.durs[s.name], s.dur())
	}
	for _, spans := range clients {
		self := selfTimes(spans)
		for i, s := range spans {
			sm.durs[s.name] = append(sm.durs[s.name], s.dur())
			sm.self[s.name] += self[i]
			switch s.name {
			case spCommit:
				sm.commitSelf = append(sm.commitSelf, self[i])
			case spQuery, spHTTPQuery:
				sm.queryDur[s.arg] = append(sm.queryDur[s.arg], s.dur())
			}
			if s.parent < 0 {
				sm.rootBusy += s.dur()
			}
		}
	}
	return sm
}

func (sm *spanSummary) medianUS(name spanName) float64 { return medianOf(sm.durs[name]) / 1e3 }

// medianOf is the (upper) median of v, 0 when v is empty.
func medianOf(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	return float64(sortedCopy(v)[len(v)/2])
}

// maxTraceFileSpans caps trace.jsonl: a traced window at 50k transactions a
// second holds millions of spans; the file keeps each log's first spans and
// says how many it left out. The summaries always use every span.
const maxTraceFileSpans = 200_000

// writeTrace appends one workload's spans as JSON lines: a header line per
// log, then {"log","i","name","arg","parent","req","start_ns","end_ns"}
// per span. parent is an index i within the same log, -1 for a root.
func writeTrace(w io.Writer, workload string, logs map[string][]span) error {
	names := make([]string, 0, len(logs))
	for n := range logs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		spans := logs[name]
		kept := min(len(spans), maxTraceFileSpans)
		log := workload + "/" + name
		if _, err := fmt.Fprintf(w, `{"log":%q,"spans":%d,"written":%d}`+"\n", log, len(spans), kept); err != nil {
			return err
		}
		for i, s := range spans[:kept] {
			if _, err := fmt.Fprintf(w, `{"log":%q,"i":%d,"name":%q,"arg":%d,"parent":%d,"req":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				log, i, spanNames[s.name], s.arg, s.parent, s.req, s.start, s.end); err != nil {
				return err
			}
		}
	}
	return nil
}
