package core

import "lstore/internal/types"

// This file is the per-column merge-lineage subsystem of §4.2. Every update
// range owns one mergeLineage; every column (and the merge-maintained
// meta-columns) owns one lineage record inside it.
//
// Invariants (also recorded in ROADMAP.md):
//
//   - Per-column TPS is monotone: a merge publishes max(old, new), never a
//     smaller value, no matter which schedule produced it.
//   - Full merges and independent per-column merges commute: a full merge
//     starts each column at that column's own cursor (its effective start),
//     so tail records a per-column merge already consolidated are never
//     re-applied over newer base values.
//
// The lineage is guarded by the owning range's mergeMu: merges of one range
// serialize, merges of distinct ranges run concurrently (the merge pool).

// colLineage is one column's merge-state record: cursor is the flat count of
// the range's tail records whose effects this column's base version reflects
// (records at flat position < cursor are consolidated); tps is the published
// in-page lineage counter — the RID of the newest consolidated tail record,
// stamped into the column's base version for readers.
type colLineage struct {
	cursor int64
	tps    types.RID
}

// advance folds a consumed tail prefix ending at flat position end (whose
// newest record is newTPS) into the record and returns the TPS to publish:
// max(old, new), so no schedule ever regresses the lineage.
func (cl *colLineage) advance(end int64, newTPS types.RID) types.RID {
	if end > cl.cursor {
		cl.cursor = end
	}
	if newTPS > cl.tps {
		cl.tps = newTPS
	}
	return cl.tps
}

// mergeLineage is the merge state of one update range.
type mergeLineage struct {
	cols []colLineage
	meta colLineage // lineage of Last Updated Time + base Schema Encoding
}

func newMergeLineage(ncols int) mergeLineage {
	return mergeLineage{cols: make([]colLineage, ncols)}
}

// cursor returns column c's consolidation cursor.
func (l *mergeLineage) cursor(c int) int64 { return l.cols[c].cursor }

// tps returns column c's published lineage counter.
func (l *mergeLineage) tps(c int) types.RID { return l.cols[c].tps }

// minCursor returns the least-advanced cursor across columns — the effective
// start of a full merge and the range's unconsumed-backlog watermark.
func (l *mergeLineage) minCursor() int64 {
	if len(l.cols) == 0 {
		return 0
	}
	min := l.cols[0].cursor
	for _, cl := range l.cols[1:] {
		if cl.cursor < min {
			min = cl.cursor
		}
	}
	return min
}

// advance publishes a merge of the prefix ending at end on behalf of column
// c and returns the TPS to stamp into its new base version.
func (l *mergeLineage) advance(c int, end int64, newTPS types.RID) types.RID {
	return l.cols[c].advance(end, newTPS)
}

// advanceMeta is advance for the merge-maintained meta-columns (full merges
// only; per-column merges leave the meta-columns alone). The meta cursor is
// bookkeeping symmetry — backlog and effective starts derive only from the
// data columns.
func (l *mergeLineage) advanceMeta(end int64, newTPS types.RID) types.RID {
	return l.meta.advance(end, newTPS)
}

// ColumnLineage is one column's lineage record as reported by introspection.
type ColumnLineage struct {
	Cursor int64     // tail records consolidated into the base version
	TPS    types.RID // published in-page lineage counter
}

// RangeLineage is the merge state of one update range (introspection: the
// lstore-inspect lineage dump).
type RangeLineage struct {
	Range   int             // range index
	Sealed  bool            // unsealed ranges have no base versions yet
	Tail    int64           // tail records appended so far
	Backlog int64           // tail records not yet consumed by every column
	Cols    []ColumnLineage // one record per schema column
}

// LineageSnapshot reports every range's per-column merge lineage.
func (s *Store) LineageSnapshot() []RangeLineage {
	n := s.rangeCount()
	out := make([]RangeLineage, 0, n)
	for i := 0; i < n; i++ {
		r := s.rangeAt(i)
		r.mergeMu.Lock()
		rl := RangeLineage{
			Range:  i,
			Sealed: r.version.Load() != nil,
			Tail:   r.appended.Load(),
			Cols:   make([]ColumnLineage, len(r.lineage.cols)),
		}
		rl.Backlog = rl.Tail - r.lineage.minCursor()
		for c, cl := range r.lineage.cols {
			rl.Cols[c] = ColumnLineage{Cursor: cl.cursor, TPS: cl.tps}
		}
		r.mergeMu.Unlock()
		out = append(out, rl)
	}
	return out
}
