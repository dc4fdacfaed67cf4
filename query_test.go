package lstore

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestQueryEndToEnd exercises every terminal verb and plan shape on a
// quiesced table: filtered Rows through the RowView cursor, probe and scan
// plans, aggregates, Count, empty plans, and null predicates.
func TestQueryEndToEnd(t *testing.T) {
	db := Open()
	defer db.Close()
	tbl, err := db.CreateTable("accounts", NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "owner", Type: String},
		Column{Name: "balance", Type: Int64},
		Column{Name: "region", Type: Int64},
	), TableOptions{RangeSize: 64, DisableAutoMerge: true, SecondaryIndexes: []string{"region"}})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 200; i++ {
		if err := tbl.Insert(tx, Row{
			"id": Int(i), "owner": Str("o"), "balance": Int(i * 10), "region": Int(i % 5),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl.Merge()
	ts := db.Now()

	var n, total int64
	err = tbl.Query().Select("balance").Where(Between("balance", Int(100), Int(199))).At(ts).
		Rows(func(r *RowView) bool {
			n++
			total += r.Int("balance")
			return true
		})
	if err != nil || n != 10 || total != 1450 {
		t.Fatalf("filtered rows: n=%d total=%d err=%v", n, total, err)
	}

	keys, err := tbl.Query().Where(Eq("region", Int(3))).At(ts).Keys()
	if err != nil || len(keys) != 40 {
		t.Fatalf("probe keys: %d %v", len(keys), err)
	}

	res, err := tbl.Query().Where(Eq("region", Int(3))).At(ts).
		Aggregate(Sum("balance"), Count(), Min("balance"), Max("balance"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows(1) != 40 || res.Int(2) != 30 || res.Int(3) != 1980 {
		t.Fatalf("agg: sum=%d count=%d min=%d max=%d", res.Int(0), res.Int(1), res.Int(2), res.Int(3))
	}

	c, err := tbl.Query().Where(Gt("balance", Int(1500))).At(ts).Count()
	if err != nil || c != 49 {
		t.Fatalf("count=%d err=%v", c, err)
	}

	// Empty plan: a string the dictionary has never seen.
	if ks, err := tbl.Query().Where(Eq("owner", Str("nobody"))).At(ts).Keys(); err != nil || len(ks) != 0 {
		t.Fatalf("empty plan: %v %v", ks, err)
	}
	// Min/Max over an empty match set decode to Null.
	res, err = tbl.Query().Where(Eq("owner", Str("nobody"))).At(ts).Aggregate(Min("balance"))
	if err != nil || !res.Value(0).IsNull() || res.Rows(0) != 0 {
		t.Fatalf("empty-plan aggregate: %v rows=%d err=%v", res.Value(0), res.Rows(0), err)
	}

	// Null predicates across an update that nulls a column.
	tx = db.Begin(ReadCommitted)
	if err := tbl.Update(tx, 7, Row{"owner": Null()}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if c, err := tbl.Query().Where(IsNull("owner")).Count(); err != nil || c != 1 {
		t.Fatalf("IsNull count=%d err=%v", c, err)
	}
	if c, err := tbl.Query().Where(NotNull("owner")).Count(); err != nil || c != 199 {
		t.Fatalf("NotNull count=%d err=%v", c, err)
	}
	// Eq(Null) is IS NULL; Ne(Null) is IS NOT NULL.
	if ks, err := tbl.Query().Where(Eq("owner", Null())).Keys(); err != nil || len(ks) != 1 || ks[0] != 7 {
		t.Fatalf("Eq(Null): %v %v", ks, err)
	}
	if c, err := tbl.Query().Where(Ne("owner", Null())).Count(); err != nil || c != 199 {
		t.Fatalf("Ne(Null) count=%d err=%v", c, err)
	}

	// The old snapshot still sees the pre-update state (time travel).
	if c, err := tbl.Query().Where(IsNull("owner")).At(ts).Count(); err != nil || c != 0 {
		t.Fatalf("time-travel IsNull count=%d err=%v", c, err)
	}

	// Early stop is exact.
	n = 0
	err = tbl.Query().At(ts).Rows(func(r *RowView) bool {
		n++
		return n < 17
	})
	if err != nil || n != 17 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}

	// Aggregate with no aggregates is an error.
	if _, err := tbl.Query().Aggregate(); err == nil {
		t.Fatal("Aggregate() accepted")
	}

	// A bare Count (the one plan that materializes no columns) must see
	// deletes newer than the last merge.
	tx = db.Begin(ReadCommitted)
	if err := tbl.Delete(tx, 3); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if c, err := tbl.Query().Count(); err != nil || c != 199 {
		t.Fatalf("bare Count after unmerged delete = %d, err=%v", c, err)
	}
}

// TestIndexedValueReturns: the secondary index appends a (value, RID) pair
// on every write, so a value that returns (A → B → A) leaves the pair in the
// index twice. Every probe-planned read — FindBy, Keys and Count — must
// still see each key once, and never under the value it left, both over
// unmerged tails and over merged base pages.
func TestIndexedValueReturns(t *testing.T) {
	db := Open()
	defer db.Close()
	tbl, err := db.CreateTable("accounts", NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "region", Type: Int64},
	), TableOptions{RangeSize: 64, DisableAutoMerge: true, SecondaryIndexes: []string{"region"}})
	if err != nil {
		t.Fatal(err)
	}
	const rows, regions = 100, 5
	region := make(map[int64]int64, rows)
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < rows; i++ {
		region[i] = i % regions
		if err := tbl.Insert(tx, Row{"id": Int(i), "region": Int(region[i])}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	set := func(key, v int64) {
		t.Helper()
		tx := db.Begin(ReadCommitted)
		if err := tbl.Update(tx, key, Row{"region": Int(v)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		region[key] = v
	}
	check := func(stage string) {
		t.Helper()
		ts := db.Now()
		for v := int64(0); v < regions; v++ {
			var want []int64
			for k := int64(0); k < rows; k++ {
				if region[k] == v {
					want = append(want, k)
				}
			}
			found, err := tbl.FindBy(ts, "region", Int(v))
			if err != nil {
				t.Fatal(err)
			}
			keys, err := tbl.Query().Where(Eq("region", Int(v))).At(ts).Keys()
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]int64{"FindBy": found, "Keys": keys} {
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %s(region=%d) = %v, want %v", stage, name, v, got, want)
				}
			}
			if n, err := tbl.Query().Where(Eq("region", Int(v))).At(ts).Count(); err != nil || n != int64(len(want)) {
				t.Fatalf("%s: Count(region=%d) = %d (err %v), want %d", stage, v, n, err, len(want))
			}
		}
	}

	// Key 11 goes A → B → A; key 12 goes A → B → A → B.
	cycle := func(stage string) {
		t.Helper()
		a, b := region[11], region[11]+1
		set(11, b)
		set(11, a)
		a, b = region[12], region[12]+1
		set(12, b)
		set(12, a)
		set(12, b)
		check(stage + ", unmerged")
		tbl.Merge()
		check(stage + ", merged")
	}
	check("loaded")
	cycle("first cycle")
	// Cycle again, from merged base pages: key 11's (1, RID) pair is now in
	// the index three times.
	cycle("second cycle")
}

// ---------------------------------------------------------------------------
// The API-level oracle: every Query plan against per-key GetAt chain walks
// (the public face of the per-slot readCols oracle) under concurrent updates
// and background merges.

// queryOracleRec is one live record's oracle state at a snapshot.
type queryOracleRec struct {
	key                    int64
	owner, balance, region Value
}

// queryOracleRows materializes every live record at ts through GetAt — one
// readCols chain walk per key, no scan engine involved.
func queryOracleRows(t *testing.T, tbl *Table, ts Timestamp, rows int64) []queryOracleRec {
	t.Helper()
	var out []queryOracleRec
	for key := int64(0); key < rows; key++ {
		row, ok, err := tbl.GetAt(ts, key, "owner", "balance", "region")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		out = append(out, queryOracleRec{key: key, owner: row["owner"], balance: row["balance"], region: row["region"]})
	}
	return out
}

func equalOracleRows(a, b []queryOracleRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key || !a[i].owner.Equal(b[i].owner) ||
			!a[i].balance.Equal(b[i].balance) || !a[i].region.Equal(b[i].region) {
			return false
		}
	}
	return true
}

// runQueryOracle drives concurrent single-record writers and the background
// merge while the main goroutine sandwiches every Query plan between two
// GetAt-oracle materializations at a fixed snapshot (iterations where the
// oracles disagree — a pre-commit flip landed mid-comparison — are skipped,
// as in the core scan oracle).
func runQueryOracle(t *testing.T, workers int, perColumnMerge bool, iters int, mut ...func(*TableOptions)) {
	db := Open()
	defer db.Close()
	opts := TableOptions{
		RangeSize: 64, MergeBatch: 8, ScanWorkers: workers,
		SecondaryIndexes: []string{"region"},
	}
	for _, m := range mut {
		m(&opts)
	}
	tbl, err := db.CreateTable("accounts", NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "owner", Type: String},
		Column{Name: "balance", Type: Int64},
		Column{Name: "region", Type: Int64},
	), opts)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 300
	owners := []string{"ada", "bob", "cyd", "dee"}
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < rows; i++ {
		if err := tbl.Insert(tx, Row{
			"id": Int(i), "owner": Str(owners[i%4]), "balance": Int(i * 10), "region": Int(i % 7),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl.Merge()

	// Writers: every transaction commits at most ONE visible record flip
	// (the sandwich relies on per-key monotone flips, as in the core test).
	// Deleted keys are never reinserted: the GetAt oracle resolves a key
	// through the primary index, which points only at the key's LATEST base
	// record — a scan at an old snapshot correctly still sees a prior
	// incarnation the oracle cannot reach. (Reincarnation is covered by the
	// per-slot core oracle in internal/core/scan_test.go.)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin(ReadCommitted)
				key := r.Int63n(rows)
				var err error
				switch r.Intn(20) {
				case 0:
					err = tbl.Delete(tx, key)
				case 1, 2:
					err = tbl.Update(tx, key, Row{"owner": Null()})
				case 3, 4:
					err = tbl.Update(tx, key, Row{"owner": Str(owners[r.Intn(4)])})
				case 5, 6:
					err = tbl.Update(tx, key, Row{"region": Int(r.Int63n(7)), "balance": Int(r.Int63n(4000))})
				default:
					err = tbl.Update(tx, key, Row{"balance": Int(r.Int63n(4000))})
				}
				if err != nil || r.Intn(16) == 0 {
					tx.Abort()
					continue
				}
				tx.Commit() //nolint:errcheck
			}
		}(int64(w) + 1)
	}
	if perColumnMerge {
		// Independent per-column merges (§4.2) beside the background full
		// merges, so scans see columns whose lineages have diverged.
		nRanges := len(tbl.store.LineageSnapshot())
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(5))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tbl.store.MergeColumn(r.Intn(nRanges), r.Intn(4))
				time.Sleep(200 * time.Microsecond) // don't monopolize small hosts
			}
		}()
	}

	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < iters; iter++ {
		ts := db.Now()
		wlo := r.Int63n(2000)
		whi := wlo + r.Int63n(2000)
		k := r.Int63n(7)

		oracleA := queryOracleRows(t, tbl, ts, rows)

		// Scan plan with projection through the RowView cursor.
		var got []queryOracleRec
		err := tbl.Query().Select("owner", "balance", "region").
			Where(Between("balance", Int(wlo), Int(whi))).At(ts).
			Rows(func(rv *RowView) bool {
				got = append(got, queryOracleRec{
					key: rv.Key(), owner: rv.Value("owner"),
					balance: rv.Value("balance"), region: rv.Value("region"),
				})
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		// Probe plan.
		probeKeys, err := tbl.Query().Where(Eq("region", Int(k))).At(ts).Keys()
		if err != nil {
			t.Fatal(err)
		}
		// Aggregates over the probe plan, plus the Sum wrapper.
		agg, err := tbl.Query().Where(Eq("region", Int(k))).At(ts).
			Aggregate(Sum("balance"), Count(), Min("balance"), Max("balance"))
		if err != nil {
			t.Fatal(err)
		}
		sumGot, sumRows, err := tbl.Sum(ts, "balance")
		if err != nil {
			t.Fatal(err)
		}
		nullCount, err := tbl.Query().Where(IsNull("owner")).At(ts).Count()
		if err != nil {
			t.Fatal(err)
		}

		oracleB := queryOracleRows(t, tbl, ts, rows)
		if !equalOracleRows(oracleA, oracleB) {
			continue // a flip landed mid-iteration; comparison unsound
		}

		// Filtered rows (engine delivers RID order; live keys are unique, so
		// sort both sides by key).
		var want []queryOracleRec
		for _, rec := range oracleA {
			if b := rec.balance.Int(); !rec.balance.IsNull() && b >= wlo && b <= whi {
				want = append(want, rec)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i].key < got[j].key })
		if !equalOracleRows(got, want) {
			t.Fatalf("iter %d: filtered Rows diverge: got %d, want %d", iter, len(got), len(want))
		}

		var wantKeys []int64
		var wantSum, wantCount, wantMin, wantMax int64
		var aggSeen bool
		for _, rec := range oracleA {
			if rec.region.IsNull() || rec.region.Int() != k {
				continue
			}
			wantKeys = append(wantKeys, rec.key)
			wantCount++
			if !rec.balance.IsNull() {
				b := rec.balance.Int()
				wantSum += b
				if !aggSeen || b < wantMin {
					wantMin = b
				}
				if !aggSeen || b > wantMax {
					wantMax = b
				}
				aggSeen = true
			}
		}
		sort.Slice(probeKeys, func(i, j int) bool { return probeKeys[i] < probeKeys[j] })
		if len(probeKeys) != len(wantKeys) {
			t.Fatalf("iter %d: probe Keys diverge: got %d, want %d", iter, len(probeKeys), len(wantKeys))
		}
		for i := range wantKeys {
			if probeKeys[i] != wantKeys[i] {
				t.Fatalf("iter %d: probe key %d = %d, want %d", iter, i, probeKeys[i], wantKeys[i])
			}
		}
		if agg.Int(0) != wantSum || agg.Rows(1) != wantCount {
			t.Fatalf("iter %d: aggregate sum/count (%d,%d), want (%d,%d)",
				iter, agg.Int(0), agg.Rows(1), wantSum, wantCount)
		}
		if aggSeen && (agg.Int(2) != wantMin || agg.Int(3) != wantMax) {
			t.Fatalf("iter %d: min/max (%d,%d), want (%d,%d)",
				iter, agg.Int(2), agg.Int(3), wantMin, wantMax)
		}
		if !aggSeen && (!agg.Value(2).IsNull() || !agg.Value(3).IsNull()) {
			t.Fatalf("iter %d: min/max over empty set not null", iter)
		}

		var wantTotal, wantTotalRows, wantNulls int64
		for _, rec := range oracleA {
			if !rec.balance.IsNull() {
				wantTotal += rec.balance.Int()
				wantTotalRows++
			}
			if rec.owner.IsNull() {
				wantNulls++
			}
		}
		if sumGot != wantTotal || sumRows != wantTotalRows {
			t.Fatalf("iter %d: Sum wrapper (%d,%d), want (%d,%d)",
				iter, sumGot, sumRows, wantTotal, wantTotalRows)
		}
		if nullCount != wantNulls {
			t.Fatalf("iter %d: IsNull Count %d, want %d", iter, nullCount, wantNulls)
		}
	}
	close(stop)
	wg.Wait()
}

// TestQueryPlansMatchGetAtOracle: sequential scans, full-range merges.
func TestQueryPlansMatchGetAtOracle(t *testing.T) {
	runQueryOracle(t, 1, false, 30)
}

// TestQueryPlansMatchGetAtOracleParallel: the worker pool forced on and
// per-column merges beside the background ones — run with -race this is the concurrency test
// for parallel filtered scans at the API layer.
func TestQueryPlansMatchGetAtOracleParallel(t *testing.T) {
	runQueryOracle(t, 4, true, 30)
}

// TestQueryPlansMatchGetAtOracleSpill: the same property with base pages
// spilled behind a pool capped at a handful of frames — parallel scans,
// background merges, and pool evictions racing, with -race the API-layer
// concurrency test for beyond-RAM base storage.
func TestQueryPlansMatchGetAtOracleSpill(t *testing.T) {
	runQueryOracle(t, 4, true, 30, func(o *TableOptions) {
		o.Spill = NewMemSpill()
		o.PoolBytes = 2048
	})
}
