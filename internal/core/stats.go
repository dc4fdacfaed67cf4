package core

import (
	"sync/atomic"

	"lstore/internal/page"
)

// Stats exposes engine counters for the benchmark harness and
// cmd/lstore-inspect. All counters are monotone.
type Stats struct {
	Inserts           atomic.Uint64
	Updates           atomic.Uint64
	Deletes           atomic.Uint64
	PointReads        atomic.Uint64
	Scans             atomic.Uint64
	ScanFastSlots     atomic.Uint64
	ScanSlowSlots     atomic.Uint64
	ScanWordsDecoded  atomic.Uint64
	ScanWordsSkipped  atomic.Uint64
	WWConflicts       atomic.Uint64
	TailRecords       atomic.Uint64
	Merges            atomic.Uint64
	MergedTailRecords atomic.Uint64
	Seals             atomic.Uint64
	PagesRetired      atomic.Uint64
	HistoryPasses     atomic.Uint64
	HistoryRecords    atomic.Uint64
	SpillErrors       atomic.Uint64 // spill appends that failed (page stayed resident)
}

// StatsSnapshot is a point-in-time copy of the counters, plus the merge-lag
// gauges (computed at snapshot time, not monotone): MergeBacklog is the
// number of appended tail records not yet consumed by every column's merge
// across all ranges — the distance between writers and the merge scheduler —
// and MergeQueueDepth is how many ranges currently wait in the merge queue.
// ScanFastSlots/ScanSlowSlots split scanned slots between the scan engine's
// decoded-page fast path and the readCols chain-walk fallback (their ratio
// is the scan-side health of the merge: a growing slow share means lineage
// is outrunning consolidation). ScanWordsDecoded/ScanWordsSkipped are the
// encoded scan path's 64-slot word gauges: words whose column pages were
// materialized vs words rejected straight from the encoded predicate filter
// with zero decode. ScanWorkers is the configured scan pool.
type StatsSnapshot struct {
	Inserts           uint64
	Updates           uint64
	Deletes           uint64
	PointReads        uint64
	Scans             uint64
	ScanFastSlots     uint64
	ScanSlowSlots     uint64
	ScanWordsDecoded  uint64
	ScanWordsSkipped  uint64
	WWConflicts       uint64
	TailRecords       uint64
	Merges            uint64
	MergedTailRecords uint64
	Seals             uint64
	PagesRetired      uint64
	HistoryPasses     uint64
	HistoryRecords    uint64

	MergeBacklog    int64
	MergeQueueDepth int
	MergeWorkers    int
	ScanWorkers     int

	// Beyond-RAM base storage (all zero without Config.Spill): the buffer
	// pool's hit/miss/eviction counters, its resident-byte gauge against the
	// configured cap, the number of page frames currently on the spill file
	// (the spill page directory's size), and spill appends that failed.
	PoolHits          uint64
	PoolMisses        uint64
	PoolEvictions     uint64
	PoolResidentBytes int64
	PoolCapBytes      int64
	SpilledPages      int
	SpillErrors       uint64
}

// Stats returns a snapshot of the engine counters and merge-lag gauges.
func (s *Store) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		Inserts:           s.stats.Inserts.Load(),
		Updates:           s.stats.Updates.Load(),
		Deletes:           s.stats.Deletes.Load(),
		PointReads:        s.stats.PointReads.Load(),
		Scans:             s.stats.Scans.Load(),
		ScanFastSlots:     s.stats.ScanFastSlots.Load(),
		ScanSlowSlots:     s.stats.ScanSlowSlots.Load(),
		ScanWordsDecoded:  s.stats.ScanWordsDecoded.Load(),
		ScanWordsSkipped:  s.stats.ScanWordsSkipped.Load(),
		WWConflicts:       s.stats.WWConflicts.Load(),
		TailRecords:       s.stats.TailRecords.Load(),
		Merges:            s.stats.Merges.Load(),
		MergedTailRecords: s.stats.MergedTailRecords.Load(),
		Seals:             s.stats.Seals.Load(),
		PagesRetired:      s.stats.PagesRetired.Load(),
		HistoryPasses:     s.stats.HistoryPasses.Load(),
		HistoryRecords:    s.stats.HistoryRecords.Load(),
		MergeQueueDepth:   len(s.mergeQ),
		ScanWorkers:       s.cfg.ScanWorkers,
	}
	if s.cfg.AutoMerge {
		snap.MergeWorkers = s.cfg.MergeWorkers // 0 when no pool is running
	}
	for i := 0; i < s.rangeCount(); i++ {
		snap.MergeBacklog += s.rangeAt(i).pendingTail()
	}
	if s.pool != nil {
		pg := s.pool.Gauges()
		snap.PoolHits = uint64(pg.Hits)
		snap.PoolMisses = uint64(pg.Misses)
		snap.PoolEvictions = uint64(pg.Evictions)
		snap.PoolResidentBytes = pg.ResidentBytes
		snap.PoolCapBytes = pg.CapBytes
		snap.SpilledPages = s.spillDir.Len()
		snap.SpillErrors = s.stats.SpillErrors.Load()
	}
	return snap
}

// CompressionStats summarizes the encoded footprint of the table's sealed
// base pages (data columns plus the Start/Last Updated/Schema meta columns).
// LogicalWords is what the pages represent (one word per slot);
// PhysicalWords is what they occupy — their ratio is the compression factor
// cmd/lstore-inspect reports.
type CompressionStats struct {
	SealedRanges int
	PagesRaw     int
	PagesPacked  int
	PagesDict    int
	PagesRLE     int

	LogicalWords  uint64
	PhysicalWords uint64
}

// Ratio is the logical/physical compression factor (1 when nothing is sealed).
func (cs CompressionStats) Ratio() float64 {
	if cs.PhysicalWords == 0 {
		return 1
	}
	return float64(cs.LogicalWords) / float64(cs.PhysicalWords)
}

// CompressionStats walks every sealed range's current page versions.
func (s *Store) CompressionStats() CompressionStats {
	var cs CompressionStats
	tally := func(p page.Reader) {
		if p == nil {
			return
		}
		switch p.Kind() {
		case page.KindPacked:
			cs.PagesPacked++
		case page.KindDict:
			cs.PagesDict++
		case page.KindRLE:
			cs.PagesRLE++
		default:
			cs.PagesRaw++
		}
		cs.LogicalWords += uint64(p.Len())
		cs.PhysicalWords += uint64(p.MemWords())
	}
	for i := 0; i < s.rangeCount(); i++ {
		r := s.rangeAt(i)
		v := r.version.Load()
		if v == nil {
			continue
		}
		cs.SealedRanges++
		for _, cv := range v.cols {
			tally(cv.data)
		}
		tally(v.meta.startTime)
		tally(v.meta.lastUpdated)
		tally(v.meta.schemaEnc)
	}
	return cs
}
