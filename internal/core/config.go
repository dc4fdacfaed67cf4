// Package core implements the paper's primary contribution: the
// lineage-based storage architecture of L-Store (§2–§4).
//
// A table's records are virtually partitioned into fixed-size update ranges.
// Each range owns:
//
//   - an in-place-updatable Indirection vector (the only mutable base data,
//     manipulated exclusively through atomic CAS with an embedded latch bit),
//   - per-column base versions — read-only compressed pages stamped with an
//     in-page lineage counter (TPS) that records how many tail records have
//     been consolidated into them,
//   - a chain of append-only, write-once tail blocks holding updates for
//     the range (values materialized only for updated columns),
//   - optionally a table-level tail block while the range is still an
//     insert range (§3.2), and
//   - a compressed history store for merged tail records that left every
//     active snapshot (§4.3).
//
// The merge process (merge.go) lazily consolidates committed tail records
// into new base versions without ever blocking readers or writers; outdated
// pages stay reachable from the readers that loaded them and are freed by
// Go's GC after the last one.
package core

import (
	"fmt"
	"runtime"

	"lstore/internal/types"
)

// Layout selects the physical base-data layout. The paper's primary design
// is columnar; the row layout exists to reproduce Tables 8 and 9 (L-Store
// (Row) vs L-Store (Column)).
type Layout uint8

const (
	// ColumnLayout stores each column of a range contiguously (compressed).
	ColumnLayout Layout = iota
	// RowLayout stores records contiguously (uncompressed), trading scan
	// bandwidth for point-read locality across many columns.
	RowLayout
)

func (l Layout) String() string {
	if l == RowLayout {
		return "row"
	}
	return "column"
}

// Config tunes a Store. The zero Config is usable via applyDefaults.
type Config struct {
	// RangeSize is the number of records per update range (§4.4 recommends
	// 2^12–2^16). It must be a power of two. Also the insert-range size:
	// the paper uses much larger insert ranges (≥1M RIDs) purely to cut
	// allocation frequency; equal sizes preserve every structural property
	// (see DESIGN.md substitutions).
	RangeSize int

	// TailBlockSize is the number of tail records per tail block (the
	// paper's tail pages may be smaller than base pages, §4.4 footnote 13).
	TailBlockSize int

	// MergeBatch is the number of unmerged committed tail records that
	// triggers a background merge for a range (§6.2 finds ~50% of the range
	// size optimal).
	MergeBatch int

	// CumulativeUpdates enables carrying previously updated column values
	// forward into new tail records (§3.1), keeping the latest version of
	// any record at most 2 hops away.
	CumulativeUpdates bool

	// Layout selects columnar (default) or row-major base storage.
	Layout Layout

	// AutoMerge starts the background merge scheduler. When false, merges
	// run only via ForceMerge (deterministic tests).
	AutoMerge bool

	// MergeWorkers is the size of the background merge-scheduler pool:
	// workers drain the shared queue and merge DISTINCT ranges concurrently
	// (merges of one range still serialize on its lineage lock). The paper's
	// evaluation runs exactly one merge thread (§6.1); a pool keeps the tail
	// backlog bounded under update-heavy multi-range workloads. Default:
	// GOMAXPROCS, capped at 8.
	MergeWorkers int

	// ScanWorkers sizes the analytical-scan worker pool: ScanSum/ScanRange
	// fan independent update ranges out across up to this many goroutines
	// (aggregates merge per-worker partials; callback scans stage rows so
	// delivery order stays sequential). 1 keeps scans single-threaded.
	// Default: GOMAXPROCS, capped at 8; an explicit larger value is honored
	// (useful for tests that force the parallel path).
	ScanWorkers int

	// SecondaryIndexColumns lists data columns to maintain secondary
	// indexes on (key column always has the primary index).
	SecondaryIndexColumns []int

	// Spill enables beyond-RAM base storage: sealed/merged base pages are
	// appended to this sink in their page.MarshalEncoded form and faulted
	// back in through a pinnable buffer pool on read. Tail pages, unmerged
	// chains, and row-layout slabs stay memory-resident regardless. Nil
	// keeps every base page resident (the previous behavior).
	Spill SpillSink

	// PoolBytes caps the decoded in-memory footprint of spilled base pages
	// (the buffer pool's CLOCK eviction budget). 0 with Spill set picks a
	// default; ignored when Spill is nil.
	PoolBytes int64

	// CheckpointSpillRefs lets checkpoints reference already-spilled cold
	// pages by descriptor instead of re-shipping their bytes; restore then
	// requires the same spill file re-attached. Ignored when Spill is nil.
	CheckpointSpillRefs bool
}

// applyDefaults fills zero fields with paper-faithful defaults.
func (c Config) applyDefaults() Config {
	if c.RangeSize == 0 {
		c.RangeSize = 4096 // 2^12, the fine-grained update range of §4.4
	}
	if c.TailBlockSize == 0 {
		c.TailBlockSize = c.RangeSize / 8
		if c.TailBlockSize < 64 {
			c.TailBlockSize = 64
		}
		if c.TailBlockSize > c.RangeSize {
			c.TailBlockSize = c.RangeSize // tiny ranges (torture configs)
		}
	}
	if c.MergeBatch == 0 {
		c.MergeBatch = c.RangeSize / 2 // §6.2: M ≈ 50% of range size
	}
	if c.MergeWorkers == 0 {
		c.MergeWorkers = runtime.GOMAXPROCS(0)
		if c.MergeWorkers > 8 {
			c.MergeWorkers = 8
		}
	}
	if c.ScanWorkers == 0 {
		c.ScanWorkers = runtime.GOMAXPROCS(0)
		if c.ScanWorkers > 8 {
			c.ScanWorkers = 8
		}
	}
	if c.Spill != nil && c.PoolBytes == 0 {
		c.PoolBytes = 64 << 20
	}
	return c
}

// validate rejects unusable configurations.
func (c Config) validate() error {
	if c.RangeSize&(c.RangeSize-1) != 0 || c.RangeSize <= 0 {
		return fmt.Errorf("core: RangeSize %d must be a positive power of two", c.RangeSize)
	}
	if c.TailBlockSize <= 0 {
		return fmt.Errorf("core: TailBlockSize %d must be positive", c.TailBlockSize)
	}
	if c.MergeBatch <= 0 {
		return fmt.Errorf("core: MergeBatch %d must be positive", c.MergeBatch)
	}
	if c.MergeWorkers <= 0 {
		return fmt.Errorf("core: MergeWorkers %d must be positive", c.MergeWorkers)
	}
	if c.ScanWorkers <= 0 {
		return fmt.Errorf("core: ScanWorkers %d must be positive", c.ScanWorkers)
	}
	if c.Spill == nil && c.PoolBytes != 0 {
		return fmt.Errorf("core: PoolBytes requires a Spill sink")
	}
	if c.Spill != nil && c.Layout == RowLayout {
		return fmt.Errorf("core: spill requires the column layout (row slabs never spill)")
	}
	return nil
}

// Errors surfaced by the storage API.
var (
	ErrDuplicateKey = fmt.Errorf("core: duplicate key")
	ErrNotFound     = fmt.Errorf("core: key not found")
	ErrBadValue     = fmt.Errorf("core: value does not match column type")
	ErrClosed       = fmt.Errorf("core: store closed")
	ErrNoIndex      = fmt.Errorf("core: no secondary index")
)

// ridLocation addresses a base record: which range and which slot.
type ridLocation struct {
	rng  *updateRange
	slot int
}

func (s *Store) locate(rid types.RID) (ridLocation, bool) {
	if !rid.IsBase() {
		return ridLocation{}, false
	}
	idx := (uint64(rid) - 1) / uint64(s.cfg.RangeSize)
	s.rangesMu.RLock()
	defer s.rangesMu.RUnlock()
	if idx >= uint64(len(s.ranges)) {
		return ridLocation{}, false
	}
	r := s.ranges[idx]
	return ridLocation{rng: r, slot: int(uint64(rid) - uint64(r.firstRID))}, true
}
