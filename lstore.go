// Package lstore is a real-time OLTP and OLAP storage engine: a Go
// implementation of L-Store (Sadoghi et al., "L-Store: A Real-time OLTP and
// OLAP System", EDBT 2018).
//
// L-Store keeps a single copy of the data in a single, natively columnar
// representation and still serves both transactional point operations and
// analytical scans: recent updates are strictly appended to write-optimized
// tail pages, a background contention-free merge lazily consolidates
// committed updates into read-optimized compressed base pages (tracking
// in-page lineage so readers never block), and historic versions remain
// queryable — first through version chains, later through delta-compressed
// history stores.
//
// Transactional writes:
//
//	db := lstore.Open()
//	defer db.Close()
//	tbl, _ := db.CreateTable("accounts", lstore.NewSchema("id",
//		lstore.Column{Name: "id", Type: lstore.Int64},
//		lstore.Column{Name: "region", Type: lstore.Int64},
//		lstore.Column{Name: "balance", Type: lstore.Int64},
//	), lstore.TableOptions{SecondaryIndexes: []string{"region"}})
//	tx := db.Begin(lstore.ReadCommitted)
//	tbl.Insert(tx, lstore.Row{"id": lstore.Int(1), "region": lstore.Int(3), "balance": lstore.Int(100)})
//	tx.Commit()
//
// Analytics go through the Query builder. A query reads one consistent
// snapshot, never blocks writers, and compiles onto the columnar scan
// engine: equality predicates on indexed columns become index point-probes,
// everything else becomes a bulk scan with the predicates pushed down —
// evaluated vectorized over the decoded column pages, before any row is
// materialized:
//
//	// Filtered rows, streamed through a zero-allocation cursor:
//	tbl.Query().
//		Select("balance").
//		Where(lstore.Eq("region", lstore.Int(3)), lstore.Gt("balance", lstore.Int(100))).
//		Rows(func(r *lstore.RowView) bool {
//			fmt.Println(r.Key(), r.Int("balance"))
//			return true
//		})
//
//	// Aggregates fold inside the engine, in one pass:
//	res, _ := tbl.Query().
//		Where(lstore.Between("balance", lstore.Int(0), lstore.Int(1000))).
//		Aggregate(lstore.Sum("balance"), lstore.Count(), lstore.Max("balance"))
//	total, n := res.Int(0), res.Rows(1)
//
//	// Keys and counts:
//	keys, _ := tbl.Query().Where(lstore.Eq("region", lstore.Int(3))).Keys()
//	hot, _ := tbl.Query().Where(lstore.Gt("balance", lstore.Int(900))).Count()
//
// Sum, Scan and FindBy remain as thin wrappers compiled onto the same
// query plans.
//
// Time travel — pin any query or point read to an earlier snapshot:
//
//	then := db.Now()
//	// ... more transactions ...
//	old, ok, _ := tbl.GetAt(then, 1, "balance")
//	res, _ = tbl.Query().At(then).Aggregate(lstore.Sum("balance"))
package lstore

import (
	"lstore/internal/core"
	"lstore/internal/txn"
	"lstore/internal/types"
)

// ColType enumerates column types.
type ColType = types.ColType

// Supported column types.
const (
	Int64  = types.Int64
	String = types.String
)

// Value is a typed cell value.
type Value = types.Value

// Int wraps an int64 value.
func Int(v int64) Value { return types.IntValue(v) }

// Str wraps a string value.
func Str(s string) Value { return types.StringValue(s) }

// Null is the typed null.
func Null() Value { return types.NullValue() }

// Column declares one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table; build one with NewSchema.
type Schema struct {
	inner types.Schema
}

// NewSchema builds a schema with the named primary-key column (which must be
// an Int64 column among cols).
func NewSchema(key string, cols ...Column) Schema {
	s := types.Schema{}
	for _, c := range cols {
		s.Cols = append(s.Cols, types.ColumnDef{Name: c.Name, Type: c.Type})
	}
	s.Key = s.ColIndex(key)
	return Schema{inner: s}
}

// IsolationLevel selects transaction semantics (§5.1.1).
type IsolationLevel = txn.Level

// Isolation levels.
const (
	// ReadCommitted reads the latest committed version; no validation.
	ReadCommitted = txn.ReadCommitted
	// Snapshot reads as of the transaction's begin time.
	Snapshot = txn.Snapshot
	// Serializable validates read repeatability at commit.
	Serializable = txn.Serializable
)

// Timestamp is a logical engine timestamp (from DB.Now, usable for
// snapshots and time travel).
type Timestamp = types.Timestamp

// Row maps column names to values.
type Row map[string]Value

// ErrConflict is returned when optimistic concurrency control aborts an
// operation (write-write conflict or failed validation). Retry the
// transaction.
var ErrConflict = txn.ErrConflict

// ErrDuplicateKey is returned by Insert for an existing live key.
var ErrDuplicateKey = core.ErrDuplicateKey

// ErrNotFound is returned by Update/Delete for a missing key.
var ErrNotFound = core.ErrNotFound

// ErrTypeMismatch is returned when a value does not match its column's
// declared type — a String value against an Int64 column (or vice versa) in
// Insert, Update, or a predicate constructor — and when a predicate or
// aggregate requires an order the column cannot provide (Lt/Between/Min/...
// on a String column). Values are type-checked at the API boundary; nothing
// mistyped is ever stored or compared.
var ErrTypeMismatch = core.ErrBadValue

// ErrNoIndex is returned by FindBy for a column with no declared secondary
// index (TableOptions.SecondaryIndexes). Query has no such requirement: an
// equality predicate on an unindexed column simply plans as a filtered
// scan instead of an index probe.
var ErrNoIndex = core.ErrNoIndex

// TableOptions tunes one table's storage.
type TableOptions struct {
	// RangeSize is records per update range (power of two; default 4096,
	// the paper's 2^12 fine-grained partitioning).
	RangeSize int
	// MergeBatch is the unmerged-tail-record threshold that triggers a
	// background merge (default RangeSize/2, the paper's optimum).
	MergeBatch int
	// DisableCumulativeUpdates turns off carrying forward prior updated
	// columns (2-hop reads become chain walks).
	DisableCumulativeUpdates bool
	// RowLayout stores base data row-major instead of columnar (the
	// L-Store (Row) variant of the paper's Tables 8 and 9).
	RowLayout bool
	// MergeWorkers sizes the background merge-scheduler pool (distinct
	// ranges merge concurrently; default GOMAXPROCS, capped at 8).
	MergeWorkers int
	// ScanWorkers sizes the analytical-scan worker pool: Sum and Scan fan
	// independent update ranges out across up to this many goroutines while
	// keeping results deterministic (Scan callbacks still run on the caller
	// goroutine, in sequential row order). 1 disables parallel scans;
	// default GOMAXPROCS, capped at 8.
	ScanWorkers int
	// SecondaryIndexes lists column names to maintain secondary indexes on.
	SecondaryIndexes []string
	// DisableAutoMerge turns off the background merge thread; merges then
	// run only through Table.Merge (deterministic tests).
	DisableAutoMerge bool

	// Spill attaches beyond-RAM base storage: sealed and merged base pages
	// are written to this sink in their encoded form and read back through a
	// pinnable buffer pool capped at PoolBytes, so the table's base data may
	// exceed memory. Tail pages and unmerged update chains stay resident.
	// Incompatible with RowLayout. See OpenFileSpill / NewMemSpill.
	Spill SpillSink
	// PoolBytes caps the buffer pool's resident encoded-page bytes (CLOCK
	// eviction evicts unpinned pages past the cap; default 64 MiB). Only
	// meaningful with Spill.
	PoolBytes int64
	// CheckpointSpillRefs lets checkpoints reference this table's spilled
	// cold pages by (offset, length, CRC) descriptor instead of shipping the
	// page bytes — the image shrinks to a few uvarints per cold range, but is
	// then valid ONLY together with the spill file that produced it, which
	// Recover must see re-attached via Spill.
	CheckpointSpillRefs bool
}

// SpillSink is append-only page-frame storage behind a table's buffer pool
// (TableOptions.Spill); frames are addressed by self-verifying descriptors.
type SpillSink = core.SpillSink

// SpillDesc locates one spilled page frame: offset, length, CRC.
type SpillDesc = core.SpillDesc

// FileSpill is a file-backed SpillSink; see OpenFileSpill.
type FileSpill = core.FileSpill

// MemSpill is an in-memory SpillSink with failure-injection hooks (tests).
type MemSpill = core.MemSpill

// StatsSnapshot is what Table.Stats returns: engine counters, merge-lag
// gauges, and (with Spill attached) the buffer pool's hit/miss/eviction and
// resident-byte gauges.
type StatsSnapshot = core.StatsSnapshot

// OpenFileSpill opens (creating if absent) a file-backed spill at path.
// Reopening an existing file preserves every descriptor handed out before,
// which is what lets a checkpoint taken with CheckpointSpillRefs restore.
func OpenFileSpill(path string) (*FileSpill, error) { return core.OpenFileSpill(path) }

// NewMemSpill returns an empty in-memory spill.
func NewMemSpill() *MemSpill { return core.NewMemSpill() }
