package core

import (
	"testing"

	"lstore/internal/txn"
	"lstore/internal/types"
)

// benchMergeCycle builds a store with one sealed range and returns a step
// function that applies a committed update batch and merges it — the
// steady-state work the merge arena is meant to keep allocation-free.
func benchMergeCycle(tb testing.TB) func(round int) {
	cfg := testConfig()
	cfg.RangeSize = 256
	cfg.TailBlockSize = 64
	cfg.MergeBatch = 64
	s, err := NewStore(testSchema(), cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)

	tx := s.tm.Begin(txn.ReadCommitted)
	for i := int64(0); i < int64(cfg.RangeSize); i++ {
		if err := s.Insert(tx, []types.Value{
			types.IntValue(i), types.IntValue(10 * i), types.IntValue(20 * i), types.IntValue(30 * i),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.tm.Commit(tx); err != nil {
		tb.Fatal(err)
	}
	if !s.TrySeal(s.rangeAt(0)) {
		tb.Fatal("seal failed")
	}

	cols := []int{1}
	vals := []types.Value{types.NullValue()}
	return func(round int) {
		tx := s.tm.Begin(txn.ReadCommitted)
		for i := 0; i < cfg.MergeBatch; i++ {
			key := int64((round*cfg.MergeBatch + i) % cfg.RangeSize)
			vals[0] = types.IntValue(int64(round))
			if err := s.Update(tx, key, cols, vals); err != nil {
				tb.Fatal(err)
			}
		}
		if err := s.tm.Commit(tx); err != nil {
			tb.Fatal(err)
		}
		if s.ForceMerge() == 0 {
			tb.Fatal("merge consolidated nothing")
		}
	}
}

// BenchmarkMergeAllocs measures a full update-batch + merge cycle. The
// merge arena pools the consolidation scratch (starts, column values, meta
// columns, prefix collection), so allocs/op should stay flat as ranges
// churn — page encodes themselves still allocate their published arrays.
func BenchmarkMergeAllocs(b *testing.B) {
	step := benchMergeCycle(b)
	step(0) // warm the arena pool before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i + 1)
	}
}

// TestMergeAllocBudget pins the steady-state allocation count of a merge
// cycle. The bound is empirical with headroom: the cycle includes the update
// batch (tail records, WAL-free) and the merge (pooled arena + published
// page encodes). A regression that reintroduces per-merge slice churn —
// e.g. dropping the arena from sealLocked/mergeRange — trips this well
// before it shows up in profiles.
func TestMergeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark under -short")
	}
	res := testing.Benchmark(func(b *testing.B) {
		step := benchMergeCycle(b)
		step(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i + 1)
		}
	})
	const maxAllocs = 600
	if got := res.AllocsPerOp(); got > maxAllocs {
		t.Fatalf("merge cycle allocates %d objects/op, budget %d — arena regression?", got, maxAllocs)
	}
}
