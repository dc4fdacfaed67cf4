package core

import (
	"math/rand"
	"sync"
	"testing"

	"lstore/internal/txn"
	"lstore/internal/types"
)

// TestScanRowsStableUnderSealAndSweep is a regression test for the
// lazy-swap/sweep race: a reader that loaded a Start Time slot holding a
// transaction ID could race the seal's swap plus the manager's sweep and
// mis-classify a committed insert as aborted, transiently dropping the row
// from scans. resolveSlot's re-load closes the window; this test hammers
// the exact interleaving (seal + sweep run on the auto-merge worker while
// scanners iterate the still-unsealed path).
func TestScanRowsStableUnderSealAndSweep(t *testing.T) {
	cfg := Config{RangeSize: 256, TailBlockSize: 64, MergeBatch: 64, CumulativeUpdates: true, AutoMerge: true}
	s, err := NewStore(testSchema(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const nKeys = 256
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < nKeys; i++ {
			insertRow(t, s, tx, i, 0, 0, 0)
		}
	})
	stop := make(chan struct{})
	var wg, swg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				key := rng.Int63n(nKeys)
				tx := s.tm.Begin(txn.Serializable)
				vals, ok, _ := s.Get(tx, key, []int{1})
				if !ok {
					s.tm.Abort(tx)
					continue
				}
				if s.Update(tx, key, []int{1}, []types.Value{types.IntValue(vals[0].Int() + 1)}) != nil {
					s.tm.Abort(tx)
					continue
				}
				s.tm.Commit(tx) //nolint:errcheck // validation aborts are expected
			}
		}(int64(w) + 42)
	}
	for sc := 0; sc < 2; sc++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts := s.tm.Now()
				if _, rows := s.ScanSum(ts, 1); rows != nKeys {
					t.Errorf("scan at ts=%d saw %d rows, want %d", ts, rows, nKeys)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swg.Wait()
}
