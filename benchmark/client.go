package main

import (
	"fmt"
	"sync"
	"time"
)

// Closed-loop clients: each sends its next request only after the previous
// one completed, so a slower engine receives less load. There are never more
// clients than the sandbox has cores.

type role uint8

const (
	roleTxn role = iota
	roleQuery
)

// client is the state every closed-loop client carries across windows.
type client struct {
	id   int
	role role
	rng  rng
	tr   tracer
	st   opStats // the current window's requests
	// direct holds, in serve-htap's traced window, every directEvery-th
	// request, which goes to Store.DB instead of the wire: the paired
	// baseline the server's overhead is measured against.
	direct    opStats
	wasDirect bool  // set by step: the request just made was a direct one
	tag       uint8 // set by step: the query's shape
	err       error

	be       backend
	directBe backend // when set, takes every directEvery-th request of a traced window
	n        int     // requests made, all windows
}

// pick counts the request and returns the backend it goes to.
func (c *client) pick() backend {
	c.n++
	if c.directBe != nil && c.tr.on && c.n%directEvery == 0 {
		c.wasDirect = true
		return c.directBe
	}
	return c.be
}

// directEvery is 7, not the 8 the issue suggested: coprime with the
// two-shape query rotation, so the direct sample sees both shapes.
const directEvery = 7

type stepper interface {
	base() *client
	// step makes one request and reports whether it succeeded with a
	// correct answer.
	step() bool
}

func (c *client) base() *client { return c }

// fail records the first failure's reason; the count is kept by the loop.
func (c *client) fail(format string, args ...any) bool {
	if c.err == nil {
		c.err = fmt.Errorf("client %d: "+format, append([]any{c.id}, args...)...)
	}
	return false
}

// runClients drives every client for d and returns when all have stopped.
// Each window starts with fresh tallies.
func runClients(d time.Duration, tc *traceCtl, traced bool, clients []stepper) {
	tc.on.Store(traced)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for _, s := range clients {
		c := s.base()
		c.st, c.direct = opStats{}, opStats{}
		c.tr.on, c.tr.cur, c.tr.spans = traced, -1, nil
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tc.register(&c.tr)()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				c.tr.req++
				c.wasDirect = false
				ok := s.step()
				lat := int64(time.Since(t0))
				st := &c.st
				if c.wasDirect {
					st = &c.direct
				}
				st.attempted++
				if ok {
					st.lat = append(st.lat, lat)
					st.tag = append(st.tag, c.tag)
				} else {
					st.failed++
				}
			}
		}()
	}
	wg.Wait()
	tc.on.Store(false)
}

// ---------------------------------------------------------------------------
// The transaction (paper §6.1 short update transaction, ReadCommitted):
// 8 Gets of one random column on random keys of the active set, then 2
// Updates of 4 of the 9 data columns — the invariant pair at the key's next
// version plus two random 20-bit columns.

const (
	txnGets    = 8
	txnUpdates = 2
)

type getOp struct {
	key   int64
	col   int
	val   int64 // filled by the backend
	found bool  // filled by the backend
}

type updOp struct {
	key    int64
	c4, c5 int64
	cols   [2]int // two distinct columns of c6..c9
	vals   [2]int64
}

// backend runs requests against the embedded API or over the wire.
type backend interface {
	txn(tr *tracer, gets []getOp, ups []updOp) error
	query(tr *tracer, q *querySpec) (queryResult, error)
}

type txnClient struct {
	client
	g *gen

	// vers is the driver's record of every key's last acknowledged version.
	// Clients write disjoint keys (key % stride == parity), so each entry
	// has one writer and the driver always knows what a row must hold.
	vers           []uint32
	parity, stride int64
	active         int64 // requests touch keys [0, active)
	updates        int   // txnUpdates, or 0 on a read-only store

	gets [txnGets]getOp
	ups  [txnUpdates]updOp
}

func (c *txnClient) ownKey() int64 {
	return c.rng.intn(c.active/c.stride)*c.stride + c.parity
}

func (c *txnClient) step() bool {
	col := 1 + int(c.rng.intn(numCols-1))
	for i := range c.gets {
		c.gets[i] = getOp{key: c.rng.intn(c.active), col: col}
	}
	ups := c.ups[:c.updates]
	for i := range ups {
		u := &ups[i]
		u.key = c.ownKey()
		for i > 0 && u.key == ups[0].key {
			u.key = c.ownKey()
		}
		u.c4, u.c5 = c.g.pair(u.key, c.vers[u.key]+1)
		u.cols[0] = 6 + int(c.rng.intn(4))
		u.cols[1] = 6 + (u.cols[0]-6+1+int(c.rng.intn(3)))%4
		u.vals[0], u.vals[1] = c.rng.intn(1<<20), c.rng.intn(1<<20)
	}

	if err := c.pick().txn(&c.tr, c.gets[:], ups); err != nil {
		return c.fail("transaction: %v", err)
	}
	// Acknowledged: from here the row must hold the new version, also after
	// a crash.
	for i := range ups {
		c.vers[ups[i].key]++
	}
	for _, g := range c.gets {
		if !g.found {
			return c.fail("get %d: not found", g.key)
		}
		var want int64
		switch {
		case g.col <= 3:
			want = c.g.cell(g.key, g.col)
		case g.col <= 5:
			if g.key%c.stride != c.parity {
				continue // another client's key: its version may be moving
			}
			c4, c5 := c.g.pair(g.key, c.vers[g.key])
			for _, u := range ups { // read before this transaction's own update
				if u.key == g.key {
					c4, c5 = c.g.pair(g.key, c.vers[g.key]-1)
				}
			}
			want = c4
			if g.col == 5 {
				want = c5
			}
		default:
			if c.updates > 0 {
				if g.val < 0 || g.val >= 1<<20 {
					return c.fail("get %d %s = %d: outside 20 bits", g.key, colNames[g.col], g.val)
				}
				continue
			}
			want = c.g.cell(g.key, g.col)
		}
		if g.val != want {
			return c.fail("get %d %s = %d, want %d", g.key, colNames[g.col], g.val, want)
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Queries: always one Aggregate / Rows / Keys through Table.Query().

type shape uint8

const (
	// htap-mixed, serve-htap, and the check after oltp-durable's recovery:
	shFullAgg  shape = iota // SUM(c4),SUM(c5),COUNT(*) over all rows
	shRangeAgg              // the same over id BETWEEN lo AND lo+n/10-1
	// olap-spill:
	shFullSum      // SUM(c3) over all rows
	shClusteredSum // SUM(c6) WHERE c1 BETWEEN — 1% of rows, clustered
	shShuffledRows // Select(id,c3) WHERE c2 BETWEEN v AND v — ~1.6%, shuffled, rows materialised
	shIndexedKeys  // Keys() WHERE c2 = v — the secondary index
	numShapes
)

var shapeNames = [numShapes]string{"full_agg", "range_agg", "full_sum", "clustered_sum", "shuffled_rows", "indexed_keys"}

type queryKind uint8

const (
	qAggregate queryKind = iota
	qRows
	qKeys
)

type aggSpec struct{ op, col string } // op: sum | count

type querySpec struct {
	shape shape
	kind  queryKind
	aggs  []aggSpec // qAggregate
	sel   []string  // qRows: at most two Int64 columns
	// One optional predicate: col = lo when eq, else col BETWEEN lo AND hi.
	predCol string
	eq      bool
	lo, hi  int64
}

type queryResult struct {
	agg  [3]int64 // aggregates in request order (COUNT as its row count)
	n    int64    // rows or keys returned
	sums [2]int64 // qRows: Σ of each selected column; qKeys: Σ keys in sums[0]
}

var invariantAggs = []aggSpec{{"sum", "c4"}, {"sum", "c5"}, {"count", ""}}

type queryClient struct {
	client
	g      *gen
	shapes []shape // the rotation; client k starts k shapes in

	keysReturned int64 // Σ keys over indexed_keys probes, all windows
	probes       int64
}

func (c *queryClient) step() bool {
	g := c.g
	sh := c.shapes[(c.n+c.id)%len(c.shapes)]
	c.tag = uint8(sh)
	q := querySpec{shape: sh}
	var want queryResult
	switch sh {
	case shFullAgg:
		q.aggs = invariantAggs
		want.agg = [3]int64{g.invAll, 0, g.n}
	case shRangeAgg:
		width := g.n / 10
		q.lo = c.rng.intn(g.n - width)
		q.hi = q.lo + width - 1
		q.predCol, q.aggs = "id", invariantAggs
		want.agg = [3]int64{g.invPrefix[q.hi+1] - g.invPrefix[q.lo], 0, width}
	case shFullSum:
		q.aggs = []aggSpec{{"sum", "c3"}}
		want.agg[0] = g.sumC3
	case shClusteredSum:
		buckets := g.n / c1Cluster
		width := max(buckets/100, 1)
		q.lo = c.rng.intn(buckets - width + 1)
		q.hi = q.lo + width - 1
		q.predCol, q.aggs = "c1", []aggSpec{{"sum", "c6"}}
		want.agg[0] = g.c6Prefix[q.hi+1] - g.c6Prefix[q.lo]
	case shShuffledRows:
		// BETWEEN v AND v, not = v: equality on the indexed column would
		// plan as an index probe, and this shape is the filtered scan.
		v := c.rng.intn(c2Distinct)
		q.kind, q.sel = qRows, []string{"id", "c3"}
		q.predCol, q.lo, q.hi = "c2", v, v
		want.n, want.sums = g.c2Count[v], [2]int64{g.c2SumID[v], g.c2SumC3[v]}
	case shIndexedKeys:
		v := c.rng.intn(c2Distinct)
		q.kind, q.predCol, q.eq, q.lo = qKeys, "c2", true, v
		want.n, want.sums[0] = g.c2Count[v], g.c2SumID[v]
	}

	got, err := c.pick().query(&c.tr, &q)
	if err != nil {
		return c.fail("query %s: %v", shapeNames[sh], err)
	}
	if sh == shFullAgg || sh == shRangeAgg {
		// The writer moves c4 up and c5 down by the same amount in one
		// Update, so at any consistent snapshot the two sums cancel.
		got.agg[0] += got.agg[1]
		got.agg[1] = 0
	}
	if sh == shIndexedKeys {
		c.probes++
		c.keysReturned += got.n
	}
	if got != want {
		return c.fail("query %s [%d,%d]: got %+v, want %+v", shapeNames[sh], q.lo, q.hi, got, want)
	}
	return true
}
