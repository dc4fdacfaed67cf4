package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"syscall"
)

// opStats is one client's tally for one window. A failed operation —
// an abort, a 429 or 5xx, any error, a wrong answer — counts as attempted
// and failed and contributes no latency sample.
type opStats struct {
	attempted int
	failed    int
	lat       []int64 // ns, one per successful operation
	tag       []uint8 // parallel to lat: the query's shape (0 for transactions)
}

func (s *opStats) merge(o opStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.lat = append(s.lat, o.lat...)
	s.tag = append(s.tag, o.tag...)
}

// typicalLatency is the geometric mean, over the kinds of request in s, of
// each kind's median latency in ns. A workload's query shapes differ in cost
// by orders of magnitude; the median of the pooled samples would sit on the
// boundary between two shapes and jump with the mix, whereas this moves by
// x/k percent when one of k shapes gets x percent faster. With one kind of
// request — transactions — it is the plain median.
func (s *opStats) typicalLatency() float64 {
	byTag := s.byTag()
	if len(byTag) == 0 {
		return 0
	}
	logSum := 0.0
	for _, lat := range byTag {
		logSum += math.Log(medianOf(lat))
	}
	return math.Exp(logSum / float64(len(byTag)))
}

func (s *opStats) byTag() map[uint8][]int64 {
	out := map[uint8][]int64{}
	for i, l := range s.lat {
		out[s.tag[i]] = append(out[s.tag[i]], l)
	}
	return out
}

// pairedOverhead is the mean, over the kinds of request both tallies hold, of
// median(s) - median(base) in ns: what the path s took costs over base.
func (s *opStats) pairedOverhead(base opStats) float64 {
	a, b := s.byTag(), base.byTag()
	sum, n := 0.0, 0
	for tag, lat := range a {
		if len(b[tag]) > 0 {
			sum += medianOf(lat) - medianOf(b[tag])
			n++
		}
	}
	return div(sum, float64(n))
}

func (s *opStats) ok() int { return len(s.lat) }

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// tailPercentile picks the highest of p50, p90, p99, p99.9, p99.99 that
// still has at least ten samples beyond it, and returns it with its value.
// sorted must be ascending; with fewer than twenty-one samples even the median
// is unsupported and ok is false.
func tailPercentile(sorted []int64) (p float64, v int64, ok bool) {
	n := len(sorted)
	for _, cand := range []float64{0.9999, 0.999, 0.99, 0.9, 0.5} {
		idx := int(float64(n) * cand)
		if n-idx-1 >= 10 {
			return cand * 100, sorted[idx], true
		}
	}
	return 0, 0, false
}

// counters is a flat view of the engine's own gauges, read the way an
// operator reads them: marshal Table.Stats(), DB.WALInfo() or the body of
// GET /v1/stats to JSON and look fields up by name. A counter a later PR
// renames or drops reads as missing — a warning and a null in the report —
// never a build break.
type counters map[string]float64

// flatten adds every numeric or boolean leaf of v's JSON form to c under
// prefix, nesting with dots ("http.admission.txn_shed").
func (c counters) flatten(prefix string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("marshal %s: %w", prefix, err)
	}
	return c.flattenJSON(prefix, b)
}

func (c counters) flattenJSON(prefix string, b []byte) error {
	var tree any
	if err := json.Unmarshal(b, &tree); err != nil {
		return fmt.Errorf("decode %s: %w", prefix, err)
	}
	c.walk(prefix, tree)
	return nil
}

func (c counters) walk(path string, node any) {
	switch x := node.(type) {
	case map[string]any:
		for k, v := range x {
			c.walk(path+"."+k, v)
		}
	case float64:
		c[path] = x
	case bool:
		if x {
			c[path] = 1
		} else {
			c[path] = 0
		}
	}
}

// missing collects the counter names a report asked for and did not find.
type missing map[string]bool

// get returns the counter and whether it exists.
func (c counters) get(name string, miss missing) (float64, bool) {
	v, ok := c[name]
	if !ok {
		if !miss[name] {
			miss[name] = true
			fmt.Fprintf(os.Stderr, "warning: counter %q not found — renamed or removed? its metrics report null\n", name)
		}
	}
	return v, ok
}

// procSample is the process-level view: CPU from rusage, allocation and GC
// from the runtime.
type procSample struct {
	cpuNS    int64
	mallocs  uint64
	gcPause  uint64 // ns
	maxRSSKB int64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpuNS:    ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:  ms.Mallocs,
		gcPause:  ms.PauseTotalNs,
		maxRSSKB: ru.Maxrss,
	}
}

// liveHeap is HeapAlloc after a forced collection: what the process holds,
// not what it has yet to sweep.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quartileSpread is (Q3-Q1)/median with Python's statistics.quantiles
// (n=4, exclusive method) — the rule the acceptance check uses.
func quartileSpread(v []float64) (median, spread float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	median = s[n/2]
	if n%2 == 0 {
		median = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 || median == 0 {
		return median, 0
	}
	q := func(k int) float64 { // k-th quartile, as CPython computes it
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	spread = (q(3) - q(1)) / median
	if spread < 0 {
		spread = -spread
	}
	return median, spread
}
