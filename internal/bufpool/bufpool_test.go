package bufpool

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lstore/internal/page"
)

func testPage(n int, seed uint64) page.Reader {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = seed + uint64(i%7)
	}
	return page.Encode(vals)
}

// spillPage appends pg to the pool's spill and admits it, returning the
// handle — the same sequence the seal/merge publish path performs.
func spillPage(t *testing.T, p *Pool, key uint64, pg page.Reader) *Handle {
	t.Helper()
	d, err := p.Spill().Append(page.MarshalEncoded(pg))
	if err != nil {
		t.Fatalf("spill append: %v", err)
	}
	return p.Admit(key, d, pg)
}

func TestHandleRoundTrip(t *testing.T) {
	p := New(NewMemSpill(), 1<<20)
	pg := testPage(128, 40)
	h := spillPage(t, p, 1, pg)

	if h.Len() != 128 || h.Kind() != pg.Kind() || h.MemWords() != pg.MemWords() {
		t.Fatalf("metadata mismatch: len=%d kind=%v words=%d", h.Len(), h.Kind(), h.MemWords())
	}
	for i := 0; i < 128; i++ {
		if got, want := h.Get(i), pg.Get(i); got != want {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want)
		}
	}
	got := h.AppendTo(nil)
	want := pg.(page.BulkDecoder).AppendTo(nil)
	if len(got) != len(want) {
		t.Fatalf("AppendTo length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("AppendTo[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if g := p.Gauges(); g.Misses != 0 {
		t.Fatalf("unexpected misses before eviction: %+v", g)
	}
}

func TestResidentHandle(t *testing.T) {
	pg := testPage(64, 7)
	h := NewResident(pg)
	if h.Spilled() {
		t.Fatal("resident handle reports spilled")
	}
	if _, ok := h.Desc(); ok {
		t.Fatal("resident handle has a descriptor")
	}
	r, err := h.Pin()
	if err != nil || r != pg {
		t.Fatalf("Pin = %v, %v; want the wrapped page", r, err)
	}
	h.Unpin()
	h.Release() // no-op, must not panic
	if h.Get(3) != pg.Get(3) {
		t.Fatal("Get mismatch")
	}
}

func TestEvictionAndMiss(t *testing.T) {
	// Budget fits roughly one decoded page, so admitting a second page
	// evicts the first; re-reading it is a miss that refaults from spill.
	pgA := testPage(256, 1)
	capBytes := int64(pgA.MemWords()*8) + 64
	p := New(NewMemSpill(), capBytes)

	hA := spillPage(t, p, 1, pgA)
	pgB := testPage(256, 1000)
	hB := spillPage(t, p, 2, pgB)

	// Admitting B (ref bits set on both) forces the sweep to clear and then
	// evict; one of the two must have been dropped to fit the budget.
	g := p.Gauges()
	if g.Evictions == 0 {
		t.Fatalf("expected evictions after over-budget admit: %+v", g)
	}
	if g.ResidentBytes > capBytes {
		t.Fatalf("resident %d over cap %d with nothing pinned", g.ResidentBytes, capBytes)
	}

	// Both handles must still read correctly, whichever was evicted.
	for i := 0; i < 256; i++ {
		if hA.Get(i) != pgA.Get(i) || hB.Get(i) != pgB.Get(i) {
			t.Fatalf("slot %d mismatch after eviction", i)
		}
	}
	if g = p.Gauges(); g.Misses == 0 {
		t.Fatalf("expected at least one miss: %+v", g)
	}
}

func TestPinnedPagesSurviveEviction(t *testing.T) {
	pgA := testPage(256, 1)
	p := New(NewMemSpill(), int64(pgA.MemWords()*8)/2) // nothing fits
	hA := spillPage(t, p, 1, pgA)

	r, err := hA.Pin()
	if err != nil {
		t.Fatalf("pin: %v", err)
	}
	// Churn more pages through; the pinned page must never be evicted.
	for k := uint64(2); k < 10; k++ {
		spillPage(t, p, k, testPage(256, k*100))
	}
	for i := 0; i < 256; i++ {
		if r.Get(i) != pgA.Get(i) {
			t.Fatalf("pinned page mutated at slot %d", i)
		}
	}
	hA.Unpin()
	if g := p.Gauges(); g.Evictions == 0 {
		t.Fatalf("churn should have evicted unpinned pages: %+v", g)
	}
}

func TestUnpinWithoutPinPanics(t *testing.T) {
	p := New(NewMemSpill(), 1<<20)
	h := spillPage(t, p, 1, testPage(16, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unbalanced Unpin")
		}
	}()
	h.Unpin()
}

func TestReleaseDropsPage(t *testing.T) {
	p := New(NewMemSpill(), 1<<20)
	h := spillPage(t, p, 1, testPage(256, 9))
	before := p.Gauges().ResidentBytes
	h.Release()
	after := p.Gauges().ResidentBytes
	if after >= before {
		t.Fatalf("Release did not free bytes: before=%d after=%d", before, after)
	}
	// Late readers of an old version can still pin a released handle.
	if h.Get(5) != testPage(256, 9).Get(5) {
		t.Fatal("released handle unreadable")
	}
}

func TestReleaseDefersToLastUnpin(t *testing.T) {
	p := New(NewMemSpill(), 1<<20)
	pg := testPage(256, 9)
	h := spillPage(t, p, 1, pg)
	r, _ := h.Pin()
	h.Release()
	// Still pinned: page must remain readable and resident.
	if r.Get(0) != pg.Get(0) {
		t.Fatal("pinned page unreadable after Release")
	}
	h.Unpin()
	if g := p.Gauges(); g.ResidentBytes != 0 {
		t.Fatalf("resident bytes %d after final unpin of released handle", g.ResidentBytes)
	}
}

func TestCorruptFrameFailsLoud(t *testing.T) {
	ms := NewMemSpill()
	p := New(ms, 1) // evict immediately so every Pin refaults
	h := spillPage(t, p, 1, testPage(64, 5))

	ms.Corrupt = func(d Desc, b []byte) { b[len(b)/2] ^= 0xff }
	_, err := h.Pin()
	if err == nil {
		t.Fatal("Pin of corrupt frame succeeded")
	}
	if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupt-frame error does not mention CRC: %v", err)
	}

	// MustPin escalates to a panic (the engine's loud-failure contract).
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustPin on corrupt frame did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "CRC") {
			t.Fatalf("panic does not mention CRC: %v", r)
		}
	}()
	h.MustPin()
}

func TestRingCompaction(t *testing.T) {
	p := New(NewMemSpill(), 1<<20)
	var hs []*Handle
	for k := uint64(0); k < 32; k++ {
		hs = append(hs, spillPage(t, p, k, testPage(16, k)))
	}
	for _, h := range hs[:24] {
		h.Release()
	}
	if g := p.Gauges(); g.Frames >= 32 {
		t.Fatalf("ring not compacted: %d frames", g.Frames)
	}
	// Survivors still work.
	for i, h := range hs[24:] {
		want := testPage(16, uint64(24+i)).Get(1)
		if got := h.Get(1); got != want {
			t.Fatalf("survivor %d reads %d, want %d", i, got, want)
		}
	}
}

func TestConcurrentPinEvictRelease(t *testing.T) {
	// -race property test: readers pin/unpin while churn admits new pages
	// (forcing eviction) and releases old ones, racing the CLOCK sweep
	// against loads and retirement.
	pgs := make([]page.Reader, 16)
	for i := range pgs {
		pgs[i] = testPage(128, uint64(i)*13)
	}
	p := New(NewMemSpill(), int64(pgs[0].MemWords()*8)*3) // ~3 frames resident
	// Published like core's colVersion swap: readers load the current handle
	// atomically, the merge-swap goroutine stores successors.
	handles := make([]atomic.Pointer[Handle], len(pgs))
	for i, pg := range pgs {
		handles[i].Store(spillPage(t, p, uint64(i), pg))
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 400; it++ {
				h := handles[(w*7+it)%len(handles)].Load()
				r, err := h.Pin()
				if err != nil {
					panic(err)
				}
				want := pgs[(w*7+it)%len(pgs)]
				if r.Get(it%128) != want.Get(it%128) {
					panic("pinned read mismatch")
				}
				if it%3 == 0 {
					_ = h.AppendTo(nil)
				}
				h.Unpin()
			}
		}(w)
	}
	// Merge-swap simulator: retire and re-admit fresh versions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < 100; it++ {
			i := it % len(pgs)
			old := handles[i].Load()
			nh := spillPage(t, p, uint64(i), pgs[i])
			handles[i].Store(nh)
			old.Release()
		}
	}()
	wg.Wait()

	g := p.Gauges()
	if g.Misses == 0 || g.Evictions == 0 {
		t.Fatalf("churn produced no pool activity: %+v", g)
	}
}

func TestFileSpillRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spill.lsp")
	fs, err := OpenFileSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	pg := testPage(100, 77)
	payload := page.MarshalEncoded(pg)
	d, err := fs.Append(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: old descriptors stay valid, new appends land after them.
	fs2, err := OpenFileSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	got, err := fs2.ReadAt(d)
	if err != nil {
		t.Fatalf("read after reopen: %v", err)
	}
	rp, err := page.UnmarshalEncoded(got)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Get(42) != pg.Get(42) {
		t.Fatal("round-trip mismatch")
	}
	d2, err := fs2.Append(payload)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Off < d.Off+int64(d.Len) {
		t.Fatalf("reopened append overlapped: %+v then %+v", d, d2)
	}

	// Corruption on disk fails the CRC check.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[d.Off+int64(d.Len)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fs3, err := OpenFileSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs3.Close()
	if _, err := fs3.ReadAt(d); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupt file read = %v, want CRC error", err)
	}
}

func TestMemSpillFailureHooks(t *testing.T) {
	ms := NewMemSpill()
	ms.FailAppend = fmt.Errorf("no space left on device")
	if _, err := ms.Append([]byte{1}); err == nil {
		t.Fatal("FailAppend ignored")
	}
	ms.FailAppend = nil
	ms.FailSync = fmt.Errorf("sync failed")
	if err := ms.Sync(); err == nil {
		t.Fatal("FailSync ignored")
	}
	if _, err := ms.ReadAt(Desc{Off: 100, Len: 10}); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
}
