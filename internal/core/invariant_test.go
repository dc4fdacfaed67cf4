package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lstore/internal/txn"
	"lstore/internal/types"
)

// This file verifies the structural invariants DESIGN.md enumerates.

// TestInvariantTailPagesWriteOnce: once a tail record is published, its data
// slots never change; Start Time slots change only via the value-preserving
// lazy swap (txn-ID → commit time / tombstone).
func TestInvariantTailPagesWriteOnce(t *testing.T) {
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 16; i++ {
			if err := s.Update(tx, i, []int{1, 3}, []types.Value{types.IntValue(i), types.IntValue(-i)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	r := s.rangeAt(0)
	blocks := *r.tailBlocks.Load()
	type snap struct {
		enc, back, base uint64
		data            [4]uint64
		startResolved   types.Timestamp
	}
	var before []snap
	for _, b := range blocks {
		for i := 0; i < b.rids.Used(); i++ {
			sn := snap{
				enc:  b.schemaEnc.Load(i),
				back: b.indirection.Load(i),
				base: b.baseRID.Load(i),
			}
			ts, st := s.tm.Resolve(b.startTime.Load(i))
			if st != txn.StatusCommitted {
				t.Fatalf("unexpected uncommitted tail record in quiesced store")
			}
			sn.startResolved = ts
			for c := 0; c < 4; c++ {
				if p := b.dataPage(c, false); p != nil {
					sn.data[c] = p.Load(i)
				}
			}
			before = append(before, sn)
		}
	}
	// Generate lots more activity: updates, merges, reads (lazy swaps).
	for round := int64(0); round < 4; round++ {
		mustCommit(t, s, func(tx *txn.Txn) {
			for i := int64(0); i < 16; i++ {
				if err := s.Update(tx, i+16, []int{2}, []types.Value{types.IntValue(round)}); err != nil {
					t.Fatal(err)
				}
			}
		})
		getRow(t, s, 3)
		s.ForceMerge()
	}
	idx := 0
	for _, b := range blocks {
		for i := 0; i < len(before) && i < b.rids.N; i++ {
			if idx >= len(before) {
				break
			}
			sn := before[idx]
			idx++
			if got := b.schemaEnc.Load(i); got != sn.enc {
				t.Fatalf("tail enc mutated: slot %d %x -> %x", i, sn.enc, got)
			}
			if got := b.indirection.Load(i); got != sn.back {
				t.Fatalf("tail back pointer mutated: slot %d", i)
			}
			if got := b.baseRID.Load(i); got != sn.base {
				t.Fatalf("tail base rid mutated: slot %d", i)
			}
			for c := 0; c < 4; c++ {
				if p := b.dataPage(c, false); p != nil && p.Load(i) != sn.data[c] {
					t.Fatalf("tail data mutated: slot %d col %d", i, c)
				}
			}
			// Start Time may only have been swapped to the SAME resolved
			// commit time.
			ts, st := s.tm.Resolve(b.startTime.Load(i))
			if st != txn.StatusCommitted || ts != sn.startResolved {
				t.Fatalf("start-time swap changed meaning: slot %d (%d,%v) want %d", i, ts, st, sn.startResolved)
			}
		}
		break // first block is enough (the one snapshot covered)
	}
}

// TestInvariantBaseVersionImmutable: a base version captured before more
// merges still decodes to the same values afterwards (readers holding old
// pages are safe; only the directory pointer moves).
func TestInvariantBaseVersionImmutable(t *testing.T) {
	s := newTestStore(t, testConfig())
	fillRange(t, s, 64)
	mustCommit(t, s, func(tx *txn.Txn) {
		for i := int64(0); i < 8; i++ {
			if err := s.Update(tx, i, []int{1}, []types.Value{types.IntValue(100 + i)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	s.ForceMerge()
	r := s.rangeAt(0)
	old := r.colVer(1)
	frozen := make([]uint64, old.data.Len())
	for i := range frozen {
		frozen[i] = old.data.Get(i)
	}
	// More updates + merges swap in new versions.
	for round := int64(0); round < 3; round++ {
		mustCommit(t, s, func(tx *txn.Txn) {
			for i := int64(0); i < 8; i++ {
				if err := s.Update(tx, i, []int{1}, []types.Value{types.IntValue(1000*round + i)}); err != nil {
					t.Fatal(err)
				}
			}
		})
		s.ForceMerge()
	}
	if r.colVer(1) == old {
		t.Fatal("merges did not produce a new version")
	}
	for i := range frozen {
		if old.data.Get(i) != frozen[i] {
			t.Fatalf("old base version mutated at slot %d", i)
		}
	}
}

// TestInvariantTPSMonotone: per-column TPS never regresses under randomized
// interleavings of full merges, per-column merges, and updates. The op-stream
// replay lives in mergelineage_test.go, shared with the pinned-seed
// regression test.
func TestInvariantTPSMonotone(t *testing.T) {
	f := func(seed int64) bool {
		return replayTPSOpStream(t, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantMergeIdempotentUnderRandomSchedules: the final visible state
// after any interleaving of merges equals the no-merge state.
func TestInvariantMergeIdempotentUnderRandomSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		run := func(withMerges bool) map[int64][3]int64 {
			r := rand.New(rand.NewSource(seed + 1000)) // same op stream
			cfg := Config{RangeSize: 32, TailBlockSize: 8, MergeBatch: 4, CumulativeUpdates: true}
			s, _ := NewStore(testSchema(), cfg, nil)
			defer s.Close()
			tx := s.tm.Begin(txn.ReadCommitted)
			for i := int64(0); i < 32; i++ {
				s.Insert(tx, []types.Value{ //nolint:errcheck
					types.IntValue(i), types.IntValue(0), types.IntValue(0), types.IntValue(0),
				})
			}
			s.tm.Commit(tx) //nolint:errcheck
			for op := 0; op < 100; op++ {
				tx := s.tm.Begin(txn.ReadCommitted)
				col := 1 + r.Intn(3)
				if s.Update(tx, r.Int63n(32), []int{col}, []types.Value{types.IntValue(r.Int63n(1 << 30))}) == nil {
					s.tm.Commit(tx) //nolint:errcheck
				} else {
					s.tm.Abort(tx)
				}
				if withMerges && rng.Intn(5) == 0 {
					s.ForceMerge()
				}
			}
			out := make(map[int64][3]int64)
			tx2 := s.tm.Begin(txn.ReadCommitted)
			defer s.tm.Abort(tx2)
			for i := int64(0); i < 32; i++ {
				vals, ok, _ := s.Get(tx2, i, []int{1, 2, 3})
				if !ok {
					continue
				}
				out[i] = [3]int64{vals[0].Int(), vals[1].Int(), vals[2].Int()}
			}
			return out
		}
		a := run(false)
		b := run(true)
		if len(a) != len(b) {
			return false
		}
		for k, va := range a {
			if b[k] != va {
				t.Logf("seed %d: key %d %v != %v", seed, k, va, b[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
