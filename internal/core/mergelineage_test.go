package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"lstore/internal/txn"
	"lstore/internal/types"
)

// replayTPSOpStream replays the op stream of TestInvariantTPSMonotone for one
// seed and fails the test on any per-column TPS regression. It returns false
// on regression (so quick.Check callers can reuse it).
func replayTPSOpStream(t *testing.T, seed int64) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{RangeSize: 32, TailBlockSize: 8, MergeBatch: 4, CumulativeUpdates: true}
	s, err := NewStore(testSchema(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tx := s.tm.Begin(txn.ReadCommitted)
	for i := int64(0); i < 32; i++ {
		if err := s.Insert(tx, []types.Value{
			types.IntValue(i), types.IntValue(0), types.IntValue(0), types.IntValue(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.tm.Commit(tx); err != nil {
		t.Fatal(err)
	}
	s.TrySeal(s.rangeAt(0))
	last := make([]types.RID, 4)
	for op := 0; op < 60; op++ {
		switch rng.Intn(3) {
		case 0:
			tx := s.tm.Begin(txn.ReadCommitted)
			col := 1 + rng.Intn(3)
			if s.Update(tx, rng.Int63n(32), []int{col}, []types.Value{types.IntValue(rng.Int63n(100))}) != nil {
				s.tm.Abort(tx)
				continue
			}
			if s.tm.Commit(tx) != nil {
				continue
			}
		case 1:
			s.mergeRange(s.rangeAt(0), -1)
		case 2:
			s.MergeColumn(0, rng.Intn(4))
		}
		for c := 0; c < 4; c++ {
			tps := s.RangeTPS(0, c)
			if tps < last[c] {
				t.Logf("seed %d: op %d col %d TPS regressed %v -> %v", seed, op, c, last[c], tps)
				return false
			}
			last[c] = tps
		}
	}
	return true
}

// checkTPSTruthful verifies CheckTPSConsistency's answer against the actual
// per-column TPS values of range ri.
func checkTPSTruthful(t *testing.T, s *Store, ri int) bool {
	t.Helper()
	_, consistent := s.CheckTPSConsistency(ri)
	allEqual := true
	first := s.RangeTPS(ri, 0)
	for c := 1; c < s.schema.NumCols(); c++ {
		if s.RangeTPS(ri, c) != first {
			allEqual = false
			break
		}
	}
	if consistent != allEqual {
		t.Logf("CheckTPSConsistency(%d) = %v but columns equal = %v", ri, consistent, allEqual)
		return false
	}
	return true
}

// TestInvariantMixedMergeSchedulesMatchOracle interleaves per-column merges,
// partial full merges, drain-everything merges, deletes, and NON-cumulative
// updates, and checks every read against a no-merge oracle running the same
// op stream — merges must never change visible state, under any schedule
// (§4.2: full and per-column merges commute). CheckTPSConsistency must stay
// truthful throughout.
func TestInvariantMixedMergeSchedulesMatchOracle(t *testing.T) {
	f := func(seed int64) bool {
		run := func(withMerges bool) map[int64][3]int64 {
			r := rand.New(rand.NewSource(seed + 7777)) // op stream: same both runs
			mr := rand.New(rand.NewSource(seed))       // merge schedule
			cfg := Config{RangeSize: 32, TailBlockSize: 8, MergeBatch: 4, CumulativeUpdates: false}
			s, err := NewStore(testSchema(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			tx := s.tm.Begin(txn.ReadCommitted)
			for i := int64(0); i < 32; i++ {
				if err := s.Insert(tx, []types.Value{
					types.IntValue(i), types.IntValue(0), types.IntValue(0), types.IntValue(0),
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.tm.Commit(tx); err != nil {
				t.Fatal(err)
			}
			s.TrySeal(s.rangeAt(0))
			for op := 0; op < 120; op++ {
				tx := s.tm.Begin(txn.ReadCommitted)
				var opErr error
				if r.Intn(10) == 0 {
					opErr = s.Delete(tx, r.Int63n(32))
				} else {
					col := 1 + r.Intn(3)
					opErr = s.Update(tx, r.Int63n(32), []int{col}, []types.Value{types.IntValue(r.Int63n(1 << 30))})
				}
				if opErr != nil {
					s.tm.Abort(tx)
				} else if err := s.tm.Commit(tx); err != nil {
					t.Fatal(err)
				}
				if withMerges {
					switch mr.Intn(6) {
					case 0:
						s.mergeRange(s.rangeAt(0), -1)
					case 1:
						s.MergeColumn(0, mr.Intn(4))
					case 2:
						s.ForceMerge()
					}
					if !checkTPSTruthful(t, s, 0) {
						t.Fatalf("seed %d: CheckTPSConsistency lied at op %d", seed, op)
					}
				}
			}
			out := make(map[int64][3]int64)
			tx2 := s.tm.Begin(txn.ReadCommitted)
			defer s.tm.Abort(tx2)
			for i := int64(0); i < 32; i++ {
				vals, ok, err := s.Get(tx2, i, []int{1, 2, 3})
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue // deleted
				}
				out[i] = [3]int64{vals[0].Int(), vals[1].Int(), vals[2].Int()}
			}
			return out
		}
		oracle := run(false)
		merged := run(true)
		if len(oracle) != len(merged) {
			t.Logf("seed %d: live-row count %d != oracle %d", seed, len(merged), len(oracle))
			return false
		}
		for k, want := range oracle {
			if got, ok := merged[k]; !ok || got != want {
				t.Logf("seed %d: key %d = %v, oracle %v", seed, k, merged[k], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantTPSMonotoneUnderMergePool runs the merge-scheduler pool
// (MergeWorkers > 1) against concurrent writers and mixed explicit merge
// schedules, sampling every column's TPS from a monitor goroutine: the
// lineage must never regress, and CheckTPSConsistency must stay truthful
// once the system quiesces.
func TestInvariantTPSMonotoneUnderMergePool(t *testing.T) {
	cfg := Config{
		RangeSize: 64, TailBlockSize: 8, MergeBatch: 8,
		CumulativeUpdates: true, AutoMerge: true, MergeWorkers: 4,
	}
	s, err := NewStore(testSchema(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 256 // 4 update ranges
	tx := s.tm.Begin(txn.ReadCommitted)
	for i := int64(0); i < rows; i++ {
		if err := s.Insert(tx, []types.Value{
			types.IntValue(i), types.IntValue(0), types.IntValue(0), types.IntValue(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.tm.Commit(tx); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var monitorWG sync.WaitGroup
	monitorWG.Add(1)
	var regressed atomic.Bool
	go func() {
		defer monitorWG.Done()
		last := make(map[[2]int]types.RID)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for ri := 0; ri < s.rangeCount(); ri++ {
				for c := 0; c < s.schema.NumCols(); c++ {
					tps := s.RangeTPS(ri, c)
					key := [2]int{ri, c}
					if tps < last[key] {
						t.Errorf("range %d col %d TPS regressed %v -> %v", ri, c, last[key], tps)
						regressed.Store(true)
						return
					}
					last[key] = tps
				}
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400 && !regressed.Load(); i++ {
				tx := s.tm.Begin(txn.ReadCommitted)
				col := 1 + r.Intn(3)
				if s.Update(tx, r.Int63n(rows), []int{col}, []types.Value{types.IntValue(r.Int63n(1 << 20))}) != nil {
					s.tm.Abort(tx)
					continue
				}
				s.tm.Commit(tx) //nolint:errcheck
				if i%16 == 0 {
					// Mixed schedules: explicit per-column and full merges
					// race the background pool.
					ri := r.Intn(s.rangeCount())
					if r.Intn(2) == 0 {
						s.MergeColumn(ri, r.Intn(4))
					} else {
						s.mergeRange(s.rangeAt(ri), -1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	monitorWG.Wait()

	s.ForceMerge()
	for ri := 0; ri < s.rangeCount(); ri++ {
		if !checkTPSTruthful(t, s, ri) {
			t.Fatalf("CheckTPSConsistency lied for range %d after quiesce", ri)
		}
	}
	s.Close()
}

// TestRegressionTPSLineageSeed100813092062542807 pins the deterministic
// repro from ISSUE 1: interleaving MergeColumn with a full mergeRange used to
// regress col 0's TPS (t53 -> t49 at op 25) because the full merge started
// from the minimum cursor and stamped every target column with the prefix's
// TPS unconditionally. Per-column lineage records make the schedules commute.
func TestRegressionTPSLineageSeed100813092062542807(t *testing.T) {
	if !replayTPSOpStream(t, 100813092062542807) {
		t.Fatal("TPS regressed under the pinned seed")
	}
}
