package main

import (
	"bytes"
	"fmt"
	"os"

	"lstore"
)

// workloads, in report order. Each `why` is the one-line reason recorded in
// BENCHMARK.json; README.md has the long form and the prediction table.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"oltp-durable", runOLTPDurable},
	{"htap-mixed", runHTAPMixed},
	{"olap-spill", runOLAPSpill},
	{"serve-htap", runServeHTAP},
}

// probeFrac is the length, as a share of the main window, of the short
// phase that exercises the role a workload's main window leaves out.
const probeFrac = 0.25

func (r *run) newClient(id int, ro role, be backend) client {
	return client{id: id, role: ro, be: be, rng: rng{s: mix(r.cfg.seed ^ uint64(id+1)<<32 ^ uint64(ro)<<48)}}
}

// writers are n transaction clients on keys [0, active). With updates each
// writes its own parity of the keys; without, nothing is written and every
// key is every client's to check.
func (r *run) writers(n int, active int64, vers []uint32, updates int, be func() backend) []stepper {
	out := make([]stepper, n)
	for i := range out {
		c := &txnClient{client: r.newClient(i, roleTxn, be()), g: r.g, vers: vers, stride: 1, active: active, updates: updates}
		if updates > 0 {
			c.parity, c.stride = int64(i), int64(n)
		}
		out[i] = c
	}
	return out
}

func (r *run) analysts(n, firstID int, shapes []shape, be func() backend) []stepper {
	out := make([]stepper, n)
	for i := range out {
		out[i] = &queryClient{client: r.newClient(firstID+i, roleQuery, be()), g: r.g, shapes: shapes}
	}
	return out
}

var htapShapes = []shape{shFullAgg, shRangeAgg}

// verifyVersions reads every row back through Table.Query().Rows and checks
// the invariant pair against the driver's record of acknowledged versions.
func (r *run) verifyVersions(tbl *lstore.Table, vers []uint32, what string) {
	var rows, bad int64
	first := ""
	err := tbl.Query().Select("c4", "c5").Rows(func(rv *lstore.RowView) bool {
		k := rv.Key()
		rows++
		c4, c5 := r.g.pair(k, vers[k])
		if rv.IntAt(0) != c4 || rv.IntAt(1) != c5 {
			if bad++; first == "" {
				first = fmt.Sprintf("key %d holds (%d,%d), acknowledged version %d is (%d,%d)", k, rv.IntAt(0), rv.IntAt(1), vers[k], c4, c5)
			}
		}
		return true
	})
	r.check(err == nil && rows == r.g.n && bad == 0, "%s: %d rows read of %d, %d wrong, err %v; first: %s", what, rows, r.g.n, bad, err, first)
}

// ---------------------------------------------------------------------------
// oltp-durable: 2 transaction clients on the embedded API, active set n/8,
// file WAL with real fsync and default group commit, background merge on.
// After the window the store is crashed — only the WAL bytes a successful
// Sync covered survive — recovered from checkpoint + tail, and every
// acknowledged write verified. The analysts then run on the recovered store.

func runOLTPDurable(r *run) error {
	s, err := r.setUp(func(dir string, _ setupInfo) (*store, error) {
		return openDurable(r.g, r.tc, dir, r.miss)
	})
	if err != nil {
		return err
	}
	defer s.close() //nolint:errcheck // closed explicitly below on the success path

	vers := make([]uint32, r.g.n)
	embed := func() backend { return newEmbedded(s.db, s.tbl) }
	clients := r.writers(2, r.g.n/8, vers, txnUpdates, embed)
	if _, err := r.warmUp(s, "warm-up", clients); err != nil {
		return err
	}
	if r.main, err = r.measure(s, "main", 1, clients); err != nil {
		return err
	}

	// Writes nobody acknowledged: applied in memory, logged, never
	// committed. They must vanish.
	// They touch keys outside the active set, and one more acknowledged
	// transaction after them pushes their records to disk with its own.
	ghost := s.db.Begin(lstore.ReadCommitted)
	for k := r.g.n / 2; k < r.g.n/2+64; k++ {
		if err := s.tbl.Update(ghost, k, lstore.Row{"c4": lstore.Int(-1), "c5": lstore.Int(-1)}); err != nil {
			return fmt.Errorf("ghost update: %w", err)
		}
	}
	r.check(clients[0].step(), "the transaction after the unacknowledged writes failed")
	// The crash: keep what the last successful Sync covered, nothing more.
	// Killing the process would leave the page cache intact, so the cut is
	// made here by hand.
	synced := s.wal.syncedLen()
	ghost.Abort()
	image, _, ok := s.ckptFile.Latest()
	if !ok {
		return fmt.Errorf("no checkpoint image after set-up")
	}
	if err := s.close(); err != nil {
		return err
	}
	log, err := os.ReadFile(s.walPath)
	if err != nil {
		return err
	}
	if int64(len(log)) < synced {
		return fmt.Errorf("WAL file holds %d bytes, fewer than the %d synced", len(log), synced)
	}

	rec, err := openEmpty()
	if err != nil {
		return err
	}
	defer rec.close() //nolint:errcheck // nothing to report: DB.Close cannot fail
	t0 := nanos()
	stats, err := lstore.Recover(rec.db, image, bytes.NewReader(log[:synced]))
	r.x.recoverSecs = float64(nanos()-t0) / 1e9
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	r.x.recoverOps = float64(stats.RedoneOps)
	r.verifyVersions(rec.tbl, vers, "durability after crash")

	// Recovery leaves the replayed tail unmerged; the analysts measure the
	// store once that has settled, not the transient after a restart.
	if err := rec.settle(r.miss); err != nil {
		return err
	}
	reader := func() backend { return newEmbedded(rec.db, rec.tbl) }
	r.probe, err = r.measure(rec, "recovered", probeFrac, r.analysts(2, 2, htapShapes, reader))
	return err
}

// openEmpty is a resident store with the table created and nothing in it:
// what Recover replays into.
func openEmpty() (*store, error) {
	s := &store{db: lstore.Open()}
	s.closers = append(s.closers, func() error { s.db.Close(); return nil })
	var err error
	s.tbl, err = createTable(s.db, tableOptions())
	return s, err
}

// ---------------------------------------------------------------------------
// htap-mixed: 1 transaction client whose active set is the whole table, so
// every range carries unmerged tails, beside 1 analyst alternating the
// full and the ranged invariant aggregate. No WAL, all resident. Warm-up is
// each role alone; the solo rates are the base of core.interference_*.

func runHTAPMixed(r *run) error {
	s, err := r.setUp(func(string, setupInfo) (*store, error) { return openResident(r.g, r.miss) })
	if err != nil {
		return err
	}
	defer s.close() //nolint:errcheck // nothing to report: DB.Close cannot fail
	vers := make([]uint32, r.g.n)
	embed := func() backend { return newEmbedded(s.db, s.tbl) }
	if err := r.mixed(s, r.g.n, vers, embed, nil); err != nil {
		return err
	}
	r.verifyVersions(s.tbl, vers, "final state")
	return nil
}

// mixed is the writer/analyst pair htap-mixed and serve-htap share. direct,
// when given, is the backend every directEvery-th traced request goes to instead.
func (r *run) mixed(s *store, active int64, vers []uint32, be, direct func() backend) error {
	writer := r.writers(1, active, vers, txnUpdates, be)
	analyst := r.analysts(1, 1, htapShapes, be)
	if direct != nil {
		writer[0].base().directBe = direct()
		analyst[0].base().directBe = direct()
	}
	w, err := r.warmUp(s, "solo-writer", writer)
	if err != nil {
		return err
	}
	r.x.soloTxnRate = w.rate(roleTxn)
	if w, err = r.warmUp(s, "solo-analyst", analyst); err != nil {
		return err
	}
	r.x.soloQueryRate = w.rate(roleQuery)
	r.main, err = r.measure(s, "main", 1, append(writer, analyst...))
	return err
}

// ---------------------------------------------------------------------------
// olap-spill: 2 analysts, read-only, base pages spilled to a file behind a
// buffer pool of 1/8 of the encoded footprint; a rotation of four shapes with
// answers precomputed by the generator. Read-only transactions (8 Gets, no
// Update) then run against the same pool.

// poolCap is 1/8 of the encoded footprint. The floor matters only on toy
// tables (the tests'): the pool cannot evict pinned pages, and two analysts'
// scan workers pin tens of kilobytes at once.
func poolCap(footprint int64) int64 {
	if footprint == 0 {
		return 0 // not measured yet: the engine's default
	}
	return max(footprint/8, 96<<10)
}

var olapShapes = []shape{shFullSum, shClusteredSum, shShuffledRows, shIndexedKeys}

func runOLAPSpill(r *run) error {
	// The footprint is only known once a load has spilled, so each build is
	// capped from the one before it; the first runs under the engine's
	// default cap and its only job is to measure. The footprint depends on
	// the seed alone, so the cap the measured store gets is exact.
	s, err := r.setUp(func(dir string, prev setupInfo) (*store, error) {
		return openSpilled(r.g, r.tc, dir, poolCap(prev.footprint), r.miss)
	})
	if err != nil {
		return err
	}
	defer s.close() //nolint:errcheck // read-only store; nothing to lose
	embed := func() backend { return newEmbedded(s.db, s.tbl) }

	analysts := r.analysts(2, 0, olapShapes, embed)
	if _, err := r.warmUp(s, "warm-up", analysts); err != nil {
		return err
	}
	if r.main, err = r.measure(s, "main", 1, analysts); err != nil {
		return err
	}
	var probes, keys int64
	for _, a := range analysts {
		qc := a.(*queryClient)
		probes, keys = probes+qc.probes, keys+qc.keysReturned
	}
	if probes > 0 {
		r.x.keysPerProbe = float64(keys) / float64(probes)
	}

	readers := r.writers(2, r.g.n, make([]uint32, r.g.n), 0, embed)
	if r.probe, err = r.measure(s, "point-reads", probeFrac, readers); err != nil {
		return err
	}

	// The point of the workload: the table must not fit, and the pool must
	// hold its cap anyway.
	for _, w := range r.windows {
		misses, _ := w.delta("stats.PoolMisses", r.miss)
		limit, _ := w.c1.get("stats.PoolCapBytes", r.miss)
		r.check(misses > 0, "%s: no pool misses — the table fits the pool", w.label)
		r.check(w.gaugeMax["stats.PoolResidentBytes"] <= limit, "%s: pool resident %.0f bytes over its cap %.0f",
			w.label, w.gaugeMax["stats.PoolResidentBytes"], limit)
	}
	return nil
}

// ---------------------------------------------------------------------------
// serve-htap: the htap-mixed pair over loopback HTTP, one keep-alive
// connection each, against server.OpenStore with the background
// checkpointer completing several rounds inside the window.
//
// The writer's active set is the first 2^16 keys, not the whole table: the
// server sheds transactions (429) once 65,536 tail records wait for a merge,
// and a merge starts only when one range has collected 2,048 of them — a
// whole-table writer would be shed long before any range got there.

const serveActive = 1 << 16

func runServeHTAP(r *run) error {
	s, err := r.setUp(func(dir string, _ setupInfo) (*store, error) {
		return openServed(r.g, r.tc, dir, r.cfg.window/4, r.miss)
	})
	if err != nil {
		return err
	}
	defer s.close() //nolint:errcheck // closed explicitly below on the success path

	var wires []*wire
	over := func() backend {
		w := newWire(s.base)
		wires = append(wires, w)
		return w
	}
	vers := make([]uint32, r.g.n)
	direct := func() backend { return newEmbedded(s.db, s.tbl) }
	if err := r.mixed(s, min(serveActive, r.g.n), vers, over, direct); err != nil {
		return err
	}

	var reqs int64
	for _, w := range wires {
		reqs += w.reqs
		r.x.reqBytes += float64(w.reqBytes)
		r.x.respBytes += float64(w.respBytes)
		w.close()
	}
	if reqs > 0 {
		r.x.reqBytes /= float64(reqs)
		r.x.respBytes /= float64(reqs)
	}
	r.verifyVersions(s.tbl, vers, "final state")
	return s.close()
}
