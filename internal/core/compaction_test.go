package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"lstore/internal/txn"
	"lstore/internal/types"
)

// updateKeys commits one transaction that sets column col of every key in
// keys to val(key) and returns a snapshot time that sees it.
func updateKeys(t *testing.T, s *Store, keys []int64, col int, val func(key int64) int64) types.Timestamp {
	t.Helper()
	mustCommit(t, s, func(tx *txn.Txn) {
		for _, k := range keys {
			if err := s.Update(tx, k, []int{col}, []types.Value{types.IntValue(val(k))}); err != nil {
				t.Fatal(err)
			}
		}
	})
	return s.tm.Now()
}

func keyRange(lo, hi int64) []int64 {
	keys := make([]int64, 0, hi-lo)
	for k := lo; k < hi; k++ {
		keys = append(keys, k)
	}
	return keys
}

// TestWalkSurvivesCompactionOfCapturedBlocks splits a snapshot read the way
// TestReadColsTearsAcrossDeleteMerge does: the reader captures its base
// state, the indirection word and the block list, and then merges and
// history compression move every block its chain runs through into the
// history store. The walk over the captured state must still return the
// version as of its snapshot. A walk whose list lacks a live block above
// histUpto must panic, never read the version as absent.
func TestWalkSurvivesCompactionOfCapturedBlocks(t *testing.T) {
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	r := s.rangeAt(0)
	const slot = 5 // fillRange inserts key i into slot i
	tsOrig := s.tm.Now()
	tsA := updateKeys(t, s, []int64{slot}, 1, func(int64) int64 { return 500 })
	updateKeys(t, s, []int64{slot}, 1, func(int64) int64 { return 501 })

	b := r.loadBase()
	ind := r.loadIndirection(slot)
	tails := *r.tailBlocks.Load()

	// Fill whole blocks behind the captured chain, then compact them.
	updateKeys(t, s, keyRange(10, 26), 2, func(k int64) int64 { return -k })
	s.ForceMerge()
	if s.CompressHistory() == 0 {
		t.Fatal("history compression moved nothing")
	}
	if uint64(ind) > r.histUpto.Load() || (*r.tailBlocks.Load())[0] != nil {
		t.Fatalf("the captured chain's block was not compacted (ind %v, histUpto %d)", ind, r.histUpto.Load())
	}

	for _, tc := range []struct {
		ts   types.Timestamp
		want int64
	}{{tsOrig, 10 * slot}, {tsA, 500}, {s.tm.Now(), 501}} {
		out := make([]uint64, 2)
		res := r.walkChain(asOfView(tc.ts), b, ind, tails, slot, []int{0, 1}, out)
		if !res.exists || out[0] != types.EncodeInt64(slot) || out[1] != types.EncodeInt64(tc.want) {
			t.Fatalf("walk at %d = (%v, %d, %d), want key %d and A %d", tc.ts, res.exists,
				out[0], out[1], types.EncodeInt64(slot), types.EncodeInt64(tc.want))
		}
	}

	// A version above histUpto whose block the list lacks is a broken chain.
	updateKeys(t, s, []int64{slot}, 1, func(int64) int64 { return 502 })
	fresh := r.loadIndirection(slot)
	if uint64(fresh) <= r.histUpto.Load() {
		t.Fatalf("fresh version %v is already compacted", fresh)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a walk through a block missing from its list returned a version")
		}
	}()
	r.walkChain(asOfView(s.tm.Now()), r.loadBase(), fresh, tails[:0], slot, []int{1}, make([]uint64, 1))
}

// TestUpdateAfterNewestVersionCompacted updates a record whose newest tail
// record already moved into the history store. The write-write check must
// treat the compacted version as resolved, the new version must carry the
// cumulative values of earlier updates, and snapshots on both sides of the
// update must read their own versions.
func TestUpdateAfterNewestVersionCompacted(t *testing.T) {
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	r := s.rangeAt(0)
	const slot = 5
	tsOrig := s.tm.Now()
	updateKeys(t, s, []int64{slot}, 1, func(int64) int64 { return 500 })
	tsAC := updateKeys(t, s, []int64{slot}, 3, func(int64) int64 { return 700 })
	updateKeys(t, s, keyRange(10, 26), 2, func(k int64) int64 { return -k })
	s.ForceMerge()
	s.CompressHistory()
	if ind := r.loadIndirection(slot); ind == 0 || uint64(ind) > r.histUpto.Load() {
		t.Fatalf("newest version %v of key %d is not compacted (histUpto %d)", ind, slot, r.histUpto.Load())
	}

	conflicts := s.Stats().WWConflicts
	tsB := updateKeys(t, s, []int64{slot}, 2, func(int64) int64 { return 600 })
	if got := s.Stats().WWConflicts; got != conflicts {
		t.Fatalf("update over a compacted version counted %d write-write conflicts", got-conflicts)
	}

	rec := r.tailRecord(*r.tailBlocks.Load(), r.loadIndirection(slot))
	for _, c := range []struct {
		col  int
		want int64
	}{{1, 500}, {2, 600}, {3, 700}} {
		if v, ok := rec.value(c.col); !ok || v != types.EncodeInt64(c.want) {
			t.Fatalf("new version's column %d = (%d, %v), want cumulative %d", c.col, v, ok, types.EncodeInt64(c.want))
		}
	}

	for _, tc := range []struct {
		ts      types.Timestamp
		a, b, c int64
	}{{tsOrig, 10 * slot, 20 * slot, 30 * slot}, {tsAC, 500, 20 * slot, 700}, {tsB, 500, 600, 700}} {
		vals, ok, err := s.GetAt(tc.ts, slot, []int{1, 2, 3})
		if err != nil || !ok {
			t.Fatalf("GetAt(%d): %v %v", tc.ts, ok, err)
		}
		if vals[0].Int() != tc.a || vals[1].Int() != tc.b || vals[2].Int() != tc.c {
			t.Fatalf("GetAt(%d) = %v, want (%d, %d, %d)", tc.ts, vals, tc.a, tc.b, tc.c)
		}
	}
}

// TestSnapshotReadsSurviveConcurrentCompaction runs snapshot readers — point
// reads and aggregate scans at recorded timestamps — beside one writer and
// a goroutine that loops full merges and history compression. Every answer
// must equal the state recorded at its timestamp: compaction may move the
// blocks a reader is walking into the history store at any moment.
//
// Round r sets A = r*1000+key on every key, and every third round also sets
// C = -(r*1000+key), so snapshots reach back across both columns' chains.
func TestSnapshotReadsSurviveConcurrentCompaction(t *testing.T) {
	const nKeys, rounds = 128, 30
	s := newTestStore(t, testConfig())
	mustCommit(t, s, func(tx *txn.Txn) {
		for k := int64(0); k < nKeys; k++ {
			insertRow(t, s, tx, k, k, 0, -k)
		}
	})
	s.ForceMerge() // seals both ranges
	keys := keyRange(0, nKeys)

	var mu sync.Mutex
	stamps := []types.Timestamp{s.tm.Now()} // stamps[r] sees round r
	stamp := func(rng *rand.Rand) (int, types.Timestamp) {
		mu.Lock()
		defer mu.Unlock()
		r := rng.Intn(len(stamps))
		return r, stamps[r]
	}
	wantA := func(r int, k int64) int64 { return int64(r)*1000 + k }
	wantC := func(r int, k int64) int64 { return -wantA(r-r%3, k) }

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // compactor
		defer wg.Done()
		for !done.Load() {
			s.ForceMerge()
			s.CompressHistory()
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) { // snapshot reader
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				r, ts := stamp(rng)
				k := rng.Int63n(nKeys)
				vals, ok, err := s.GetAt(ts, k, []int{1, 3})
				if err != nil || !ok {
					t.Errorf("GetAt(round %d, key %d): %v %v", r, k, ok, err)
					return
				}
				if vals[0].Int() != wantA(r, k) || vals[1].Int() != wantC(r, k) {
					t.Errorf("GetAt(round %d, key %d) = %v, want A %d C %d", r, k, vals, wantA(r, k), wantC(r, k))
					return
				}
				if rng.Intn(8) == 0 {
					var sumA, sumC int64
					for k := int64(0); k < nKeys; k++ {
						sumA += wantA(r, k)
						sumC += wantC(r, k)
					}
					states := s.ScanAggregate(ts, []int{1, 3}, nil,
						[]AggSpec{{Op: AggSum, Idx: 0}, {Op: AggSum, Idx: 1}}, 0, types.TailRIDBase)
					if states[0].Sum != sumA || states[1].Sum != sumC || states[0].Count != nKeys {
						t.Errorf("scan at round %d = (A %d, C %d, rows %d), want (%d, %d, %d)",
							r, states[0].Sum, states[1].Sum, states[0].Count, sumA, sumC, nKeys)
						return
					}
				}
			}
		}(int64(w))
	}

	for r := 1; r <= rounds && !t.Failed(); r++ {
		updateKeys(t, s, keys, 1, func(k int64) int64 { return wantA(r, k) })
		ts := s.tm.Now()
		if r%3 == 0 {
			ts = updateKeys(t, s, keys, 3, func(k int64) int64 { return wantC(r, k) })
		}
		mu.Lock()
		stamps = append(stamps, ts)
		mu.Unlock()
	}
	done.Store(true)
	wg.Wait()
	if s.Stats().HistoryRecords == 0 {
		t.Fatal("compaction never moved a record: the test exercised nothing")
	}
}
