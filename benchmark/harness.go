package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

type traceMode uint8

const (
	traceOff  traceMode = iota // measured window only: the end-to-end metrics
	traceOn                    // a short untraced reference, then the traced window: the per-layer metrics
	traceBoth                  // both windows at full length on the same store
)

var traceModeNames = [...]string{traceOff: "0", traceOn: "1", traceBoth: "both"}

type config struct {
	workload  string
	seed      uint64
	window    time.Duration
	trace     traceMode
	rows      int64
	dir       string // scratch root; a per-run directory is made inside and removed
	traceFile string
}

// setups is how many times a run sets the store up. Set-up time is an
// end-to-end metric with a regression bound, and one sample of a
// multi-second, fsync-bearing load does not repeat well enough to bound.
const setups = 3

// run is one workload, once: set-up, warm-up, the measured windows, the
// checks, and everything they produced.
type run struct {
	cfg  config
	g    *gen
	tc   *traceCtl
	dir  string
	miss missing

	s         *store // the store the main window ran on (kept past its close for the report)
	setupSecs []float64
	windows   []*window // every window run, warm-up included, in order
	main      measured  // the workload's defining window
	probe     measured  // the other role's short window, where there is one
	logs      map[string][]span

	checks       int // one-off checks made (durability, pool cap, final state)
	checksFailed int
	problems     []string // what failed: checks, and each client's first failure per window
	x            extras
}

// extras are the per-layer inputs that come from outside any window.
type extras struct {
	soloTxnRate, soloQueryRate float64 // htap: each role alone, from warm-up
	recoverSecs                float64
	recoverOps                 float64
	keysPerProbe               float64
	reqBytes, respBytes        float64 // mean per wire request
}

// window is one timed stretch of closed-loop load.
type window struct {
	label      string
	traced     bool
	secs       float64
	start, end int64              // nanos()
	ops        [2]opStats         // by role
	direct     [2]opStats         // serve-htap traced: the requests made directly on Store.DB
	clients    [2]int             // clients per role
	c0, c1     counters           // gauges before and after
	gaugeMax   map[string]float64 // sampled maxima of MergeBacklog, PoolResidentBytes
	sum        *spanSummary       // traced only
	txnRoots   []span             // traced only: transaction roots, for ckpt.stall_ratio
}

// measured is a workload phase as the mode asked for it: the untraced window
// the end-to-end metrics come from, the traced one the layer metrics come
// from, or both.
type measured struct{ un, tr *window }

func (w *window) rate(r role) float64 {
	if w == nil || w.secs == 0 {
		return 0
	}
	return float64(w.ops[r].ok()) / w.secs
}

func (w *window) delta(name string, miss missing) (float64, bool) {
	a, ok0 := w.c0.get(name, miss)
	b, ok1 := w.c1.get(name, miss)
	return b - a, ok0 && ok1
}

var sampledGauges = []string{"stats.MergeBacklog", "stats.PoolResidentBytes"}

// runWindow drives clients against s for d, bracketing the window with
// gauge snapshots and sampling the gauges that only make sense as maxima.
func (r *run) runWindow(s *store, label string, d time.Duration, traced bool, clients []stepper) (*window, error) {
	w := &window{label: label, traced: traced, gaugeMax: map[string]float64{}}
	var err error
	if w.c0, err = s.snapshot(); err != nil {
		return nil, err
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			c := counters{}
			if c.flatten("stats", s.tbl.Stats()) == nil {
				for _, name := range sampledGauges {
					w.gaugeMax[name] = max(w.gaugeMax[name], c[name])
				}
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	w.start = nanos()
	runClients(d, r.tc, traced, clients)
	w.end = nanos()
	w.secs = float64(w.end-w.start) / 1e9
	close(stop)
	wg.Wait()

	if w.c1, err = s.snapshot(); err != nil {
		return nil, err
	}
	for _, cl := range clients {
		c := cl.base()
		w.clients[c.role]++
		w.ops[c.role].merge(c.st)
		w.direct[c.role].merge(c.direct)
		if c.err != nil {
			r.problems = append(r.problems, c.err.Error())
			c.err = nil
		}
	}
	if traced {
		var logs [][]span
		for _, cl := range clients {
			c := cl.base()
			r.logs[fmt.Sprintf("%s/client-%d", label, c.id)] = c.tr.spans
			logs = append(logs, c.tr.spans)
			for _, sp := range c.tr.spans {
				if sp.parent < 0 && (sp.name == spTxn || sp.name == spHTTPTxn) {
					w.txnRoots = append(w.txnRoots, sp)
				}
			}
			c.tr.spans = nil
		}
		r.tc.bgMu.Lock()
		bg := r.tc.bg
		r.tc.bg = nil
		r.tc.bgMu.Unlock()
		r.logs[label+"/background"] = bg
		w.sum = summarize(logs, bg)
	}
	r.windows = append(r.windows, w)
	return w, nil
}

// measure runs one phase in the run's mode. frac scales the window: the
// workload's main phase runs at 1, a probe phase shorter.
func (r *run) measure(s *store, label string, frac float64, clients []stepper) (measured, error) {
	full := time.Duration(float64(r.cfg.window) * frac)
	untraced := full
	if r.cfg.trace == traceOn {
		untraced /= 4 // only the reference rate for trace_overhead_frac
	}
	var m measured
	var err error
	if m.un, err = r.runWindow(s, label, untraced, false, clients); err != nil {
		return m, err
	}
	if r.cfg.trace != traceOff {
		m.tr, err = r.runWindow(s, label+"-traced", full, true, clients)
	}
	return m, err
}

// warmUp runs clients for a quarter window and returns the window; nothing
// in it is reported except, for htap, the solo rates.
func (r *run) warmUp(s *store, label string, clients []stepper) (*window, error) {
	return r.runWindow(s, label, r.cfg.window/4, false, clients)
}

// setUp builds the store `setups` times, closing all but the last, and
// records each build's duration. build receives the previous build's info
// (olap-spill sizes its pool from the footprint the previous build measured).
func (r *run) setUp(build func(dir string, prev setupInfo) (*store, error)) (*store, error) {
	var s *store
	var prev setupInfo
	var heap0 uint64
	for i := 0; i < setups; i++ {
		if s != nil {
			prev = s.info
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i-1, err)
			}
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if i == setups-1 {
			heap0 = liveHeap()
		}
		t0 := time.Now()
		var err error
		s, err = build(dir, prev)
		if err != nil {
			if s != nil {
				s.close() //nolint:errcheck // the build error is the one to report
			}
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		s.info.total = time.Since(t0)
		r.setupSecs = append(r.setupSecs, s.info.total.Seconds())
	}
	s.info.heapBytes = int64(liveHeap()) - int64(heap0)
	c := counters{}
	if err := c.flatten("comp", s.tbl.CompressionStats()); err != nil {
		return nil, err
	}
	if words, ok := c.get("comp.PhysicalWords", r.miss); ok {
		s.info.encodedBytes = words * 8
	} else {
		s.info.encodedBytes = -1
	}
	r.s = s
	return s, nil
}

// check records a one-off verification: it counts as one attempted
// operation and, when it fails, one failed.
func (r *run) check(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.checksFailed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}
