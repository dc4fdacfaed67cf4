// Package bench is the experiment harness reproducing §6: it drives the
// micro benchmark of internal/workload against the three storage
// architectures (L-Store, In-place Update + History, Delta + Blocking
// Merge) and prints, for every figure and table of the paper's evaluation,
// the same rows/series the paper reports.
package bench

import (
	"fmt"

	"lstore/internal/baseline/dbm"
	"lstore/internal/baseline/iuh"
	"lstore/internal/core"
	"lstore/internal/txn"
	"lstore/internal/types"
)

// Engine is the harness contract every storage architecture implements.
type Engine interface {
	Name() string
	// Preload inserts keys [0, n) with ncols columns (col 0 = key).
	Preload(n, ncols int) error
	// Begin/Commit/Abort manage one short transaction.
	Begin(level txn.Level) *txn.Txn
	Commit(t *txn.Txn) error
	Abort(t *txn.Txn)
	// Read fetches cols of key (read-committed); ok=false → missing.
	Read(t *txn.Txn, key int64, cols []int) bool
	// Update writes vals into cols of key.
	Update(t *txn.Txn, key int64, cols []int, vals []int64) error
	// ScanSum sums col over rows [0, span) at snapshot ts.
	ScanSum(ts types.Timestamp, col int, span int) (int64, int64)
	// Now returns the current logical time.
	Now() types.Timestamp
	// Maintain runs one background-maintenance step (merge trigger for DBM;
	// a no-op for engines with their own threads).
	Maintain()
	// Close stops background work.
	Close()
}

// ---------------------------------------------------------------------------
// L-Store adapter

// LStoreEngine adapts core.Store.
type LStoreEngine struct {
	store *core.Store
	row   bool
}

// LStoreOptions tunes the adapter.
type LStoreOptions struct {
	RangeSize   int
	MergeBatch  int
	ScanWorkers int
	RowLayout   bool
	// DisableAutoMerge turns the background merge thread off (Figure 8
	// sweeps merge batch sizes with explicit control).
	DisableAutoMerge bool
}

// NewLStore builds the L-Store engine with ncols columns.
func NewLStore(ncols int, o LStoreOptions) (*LStoreEngine, error) {
	schema := types.Schema{Key: 0}
	for i := 0; i < ncols; i++ {
		schema.Cols = append(schema.Cols, types.ColumnDef{Name: fmt.Sprintf("c%d", i), Type: types.Int64})
	}
	cfg := core.Config{
		RangeSize:         o.RangeSize,
		MergeBatch:        o.MergeBatch,
		ScanWorkers:       o.ScanWorkers,
		CumulativeUpdates: true,
		AutoMerge:         !o.DisableAutoMerge,
	}
	if o.RowLayout {
		cfg.Layout = core.RowLayout
	}
	s, err := core.NewStore(schema, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &LStoreEngine{store: s, row: o.RowLayout}, nil
}

func (e *LStoreEngine) Name() string {
	if e.row {
		return "L-Store (Row)"
	}
	return "L-Store"
}

// Store exposes the underlying store (experiments trigger ForceMerge etc.).
func (e *LStoreEngine) Store() *core.Store { return e.store }

func (e *LStoreEngine) Preload(n, ncols int) error {
	tm := e.store.TxnManager()
	vals := make([]types.Value, ncols)
	const batch = 4096
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		t := tm.Begin(txn.ReadCommitted)
		for k := lo; k < hi; k++ {
			vals[0] = types.IntValue(int64(k))
			for c := 1; c < ncols; c++ {
				vals[c] = types.IntValue(int64(k + c))
			}
			if err := e.store.Insert(t, vals); err != nil {
				tm.Abort(t)
				return err
			}
		}
		if err := tm.Commit(t); err != nil {
			return err
		}
	}
	e.store.ForceMerge() // seal full ranges so the steady state starts merged
	return nil
}

func (e *LStoreEngine) Begin(level txn.Level) *txn.Txn { return e.store.TxnManager().Begin(level) }
func (e *LStoreEngine) Commit(t *txn.Txn) error        { return e.store.TxnManager().Commit(t) }
func (e *LStoreEngine) Abort(t *txn.Txn)               { e.store.TxnManager().Abort(t) }

func (e *LStoreEngine) Read(t *txn.Txn, key int64, cols []int) bool {
	_, ok, err := e.store.Get(t, key, cols)
	return err == nil && ok
}

func (e *LStoreEngine) Update(t *txn.Txn, key int64, cols []int, vals []int64) error {
	vv := make([]types.Value, len(vals))
	for i, v := range vals {
		vv[i] = types.IntValue(v)
	}
	return e.store.Update(t, key, cols, vv)
}

func (e *LStoreEngine) ScanSum(ts types.Timestamp, col int, span int) (int64, int64) {
	// Span-limited scan: base RIDs map 1:1 onto preload order, so the
	// 10%-of-table scan is a RID-bounded columnar sum.
	return e.store.ScanSumRIDs(ts, col, 1, types.RID(span+1))
}

func (e *LStoreEngine) Now() types.Timestamp { return e.store.TxnManager().Now() }
func (e *LStoreEngine) Maintain()            {}
func (e *LStoreEngine) Close()               { e.store.Close() }

// ---------------------------------------------------------------------------
// IUH adapter

// IUHEngine adapts the In-place Update + History baseline.
type IUHEngine struct {
	store *iuh.Store
}

// NewIUH builds the baseline with ncols columns.
func NewIUH(ncols, rangeSize int) *IUHEngine {
	return &IUHEngine{store: iuh.New(ncols, iuh.Config{RangeSize: rangeSize}, nil)}
}

func (e *IUHEngine) Name() string { return "In-place Update + History" }

func (e *IUHEngine) Preload(n, ncols int) error {
	tm := e.store.TxnManager()
	t := tm.Begin(txn.ReadCommitted)
	row := make([]uint64, ncols)
	for k := 0; k < n; k++ {
		row[0] = types.EncodeInt64(int64(k))
		for c := 1; c < ncols; c++ {
			row[c] = types.EncodeInt64(int64(k + c))
		}
		if err := e.store.Insert(t, row); err != nil {
			e.store.Abort(t)
			return err
		}
	}
	return e.store.Commit(t)
}

func (e *IUHEngine) Begin(level txn.Level) *txn.Txn { return e.store.TxnManager().Begin(level) }
func (e *IUHEngine) Commit(t *txn.Txn) error        { return e.store.Commit(t) }
func (e *IUHEngine) Abort(t *txn.Txn)               { e.store.Abort(t) }

func (e *IUHEngine) Read(t *txn.Txn, key int64, cols []int) bool {
	_, ok := e.store.Read(t, types.EncodeInt64(key), cols)
	return ok
}

func (e *IUHEngine) Update(t *txn.Txn, key int64, cols []int, vals []int64) error {
	vv := make([]uint64, len(vals))
	for i, v := range vals {
		vv[i] = types.EncodeInt64(v)
	}
	return e.store.Update(t, types.EncodeInt64(key), cols, vv)
}

func (e *IUHEngine) ScanSum(ts types.Timestamp, col int, span int) (int64, int64) {
	return e.store.ScanSumSpan(ts, col, span)
}

func (e *IUHEngine) Now() types.Timestamp { return e.store.TxnManager().Now() }
func (e *IUHEngine) Maintain()            {}
func (e *IUHEngine) Close()               {}

// ---------------------------------------------------------------------------
// DBM adapter

// DBMEngine adapts the Delta + Blocking Merge baseline.
type DBMEngine struct {
	store *dbm.Store
}

// NewDBM builds the baseline with ncols columns.
func NewDBM(ncols, rangeSize, mergeThreshold int) *DBMEngine {
	return &DBMEngine{store: dbm.New(ncols, dbm.Config{
		RangeSize: rangeSize, MergeThreshold: mergeThreshold,
	}, nil)}
}

func (e *DBMEngine) Name() string { return "Delta + Blocking Merge" }

func (e *DBMEngine) Preload(n, ncols int) error {
	t := e.store.BeginTxn(txn.ReadCommitted)
	row := make([]uint64, ncols)
	for k := 0; k < n; k++ {
		row[0] = types.EncodeInt64(int64(k))
		for c := 1; c < ncols; c++ {
			row[c] = types.EncodeInt64(int64(k + c))
		}
		if err := e.store.Insert(t, row); err != nil {
			e.store.Abort(t)
			return err
		}
	}
	return e.store.Commit(t)
}

func (e *DBMEngine) Begin(level txn.Level) *txn.Txn { return e.store.BeginTxn(level) }
func (e *DBMEngine) Commit(t *txn.Txn) error        { return e.store.Commit(t) }
func (e *DBMEngine) Abort(t *txn.Txn)               { e.store.Abort(t) }

func (e *DBMEngine) Read(t *txn.Txn, key int64, cols []int) bool {
	_, ok := e.store.Read(t, types.EncodeInt64(key), cols)
	return ok
}

func (e *DBMEngine) Update(t *txn.Txn, key int64, cols []int, vals []int64) error {
	vv := make([]uint64, len(vals))
	for i, v := range vals {
		vv[i] = types.EncodeInt64(v)
	}
	return e.store.Update(t, types.EncodeInt64(key), cols, vv)
}

func (e *DBMEngine) ScanSum(ts types.Timestamp, col int, span int) (int64, int64) {
	return e.store.ScanSumSpan(ts, col, span)
}

func (e *DBMEngine) Now() types.Timestamp { return e.store.TxnManager().Now() }

// Maintain triggers the blocking merge when deltas crossed the threshold —
// the "merge thread" of §6.1.
func (e *DBMEngine) Maintain() { e.store.MaybeMerge() }
func (e *DBMEngine) Close()    {}
