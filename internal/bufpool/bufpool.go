// Package bufpool is the pinnable buffer pool behind beyond-RAM base
// storage: sealed and merged base pages live on a spill file (SpillSink) and
// are faulted into memory on demand, under a byte-budget cap with CLOCK
// eviction. Every base-page reference in internal/core is a *Handle rather
// than a raw page.Reader; readers pin a handle for the duration of a decode
// window and unpin when done, so eviction can never yank a page out from
// under a scan.
//
// Like internal/page and internal/pagedir, this package is an implementation
// detail of internal/core (the scanpath lint seals it): every read path that
// pins pages is one of core's validated engine paths.
//
// Concurrency design — three lock levels, strictly ordered:
//
//	Handle.loadMu  >  Pool.mu  >  Handle.mu
//
// loadMu serializes spill reads for one handle (one miss does the I/O, the
// racers reuse its page); Pool.mu guards the CLOCK ring and the resident
// byte budget; Handle.mu guards one handle's pin count and page pointer.
// Only two paths nest into Handle.mu, both from under Pool.mu: the eviction
// sweep taking each candidate's lock, and the miss path installing the page
// it just decoded. No path acquires Pool.mu or loadMu while holding a
// Handle.mu, so the order is acyclic.
package bufpool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lstore/internal/fault"
	"lstore/internal/page"
)

// Crash point on the pool miss path (no-op in production): the crash-torture
// suite trips it to prove a crash while faulting a page back in recovers
// cleanly.
var cpMissRead = fault.Register("bufpool.miss-read")

// Pool is a pin/unpin buffer pool over one spill sink. The byte budget caps
// the decoded in-memory footprint of resident spilled pages (tail pages and
// never-spilled pages are outside the pool and outside the budget).
type Pool struct {
	spill SpillSink
	cap   int64

	// The CLOCK ring holds exactly the handles whose page is resident AND
	// charged against the budget — not every handle ever admitted. A table
	// can have millions of spilled pages; the sweep must be O(resident),
	// bounded by cap/page-size, or every miss degrades to a walk over the
	// whole cold set.
	mu     sync.Mutex
	frames []*Handle // guarded by mu; the CLOCK ring (charged-resident only)
	hand   int       // guarded by mu; CLOCK hand index into frames
	// resident is the decoded bytes currently charged. Mutated only under
	// mu; read lock-free by Unpin's over-budget check so the pin fast path
	// never touches the pool lock.
	resident atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// New builds a pool over spill with a resident-byte cap. The cap is a
// target, not a hard bound: pinned pages are never evicted, so a window
// where every page is pinned can exceed it; the final Unpin sweeps the pool
// back under budget.
func New(spill SpillSink, capBytes int64) *Pool {
	return &Pool{spill: spill, cap: capBytes}
}

// Spill returns the pool's sink (the seal/merge paths append through it).
func (p *Pool) Spill() SpillSink { return p.spill }

// Gauges is one consistent snapshot of the pool counters.
type Gauges struct {
	Hits          int64 // pins served by a resident page
	Misses        int64 // pins that read the spill file
	Evictions     int64 // resident pages dropped by the CLOCK sweep
	ResidentBytes int64 // decoded bytes currently resident
	CapBytes      int64 // configured budget
	Frames        int   // resident frames on the CLOCK ring
}

// Gauges reads the pool counters.
func (p *Pool) Gauges() Gauges {
	p.mu.Lock()
	res, frames := p.resident.Load(), len(p.frames)
	p.mu.Unlock()
	return Gauges{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Evictions:     p.evictions.Load(),
		ResidentBytes: res,
		CapBytes:      p.cap,
		Frames:        frames,
	}
}

// ---------------------------------------------------------------------------
// Handle

// Handle is the one way core reads a base page. It implements page.Reader —
// point reads (Get) pin, read, and unpin internally, so every existing point
// call site works unchanged — and page.BulkDecoder, so the pooled-scratch
// bulk decode covers a whole page under one pin. Bulk scan paths that need
// the concrete encoded page (predicate binding, word-windowed decoding) pin
// explicitly: MustPin returns the underlying page.Reader and the caller
// Unpins when its decode window closes.
//
// Len/Kind/MemWords answer from metadata recorded at creation and never
// fault the page in — compression accounting and cold-range classification
// stay free of I/O.
type Handle struct {
	pool *Pool // nil: permanently resident, res is the page
	res  page.Reader
	key  uint64
	desc Desc

	kind  page.Kind
	slots int
	words int

	// loadMu serializes the miss path (spill read + decode) per handle; it
	// is never held together with mu. See the package doc's lock order.
	loadMu sync.Mutex

	mu      sync.Mutex
	pg      page.Reader // guarded by mu; nil while evicted
	pins    int         // guarded by mu
	ref     bool        // guarded by mu; CLOCK reference bit
	relFlag bool        // guarded by mu; version retired, drop when unpinned
	charged bool        // guarded by mu; pg's bytes are counted in pool.resident

	// ringIdx is the handle's slot in pool.frames, -1 while off the ring.
	// Guarded by pool.mu (NOT h.mu): ring membership changes only under the
	// pool lock, and always tracks charged (the transient where charged just
	// flipped false but the handle is still ringed is always retired-flagged,
	// so the sweep skips it until the remover takes pool.mu).
	ringIdx int
}

// NewResident wraps a page that never spills (tail-era pages, row-layout
// slabs, stores without a pool). Pin/Unpin are free, Get is direct.
func NewResident(pg page.Reader) *Handle {
	return &Handle{res: pg, kind: pg.Kind(), slots: pg.Len(), words: pg.MemWords(), ringIdx: -1}
}

// Admit registers a freshly spilled page with the pool and returns its
// handle. The page starts resident (it was just produced by seal/merge) with
// its reference bit set; the admission itself may evict colder frames to
// make room.
func (p *Pool) Admit(key uint64, d Desc, pg page.Reader) *Handle {
	h := &Handle{
		pool:    p,
		key:     key,
		desc:    d,
		kind:    pg.Kind(),
		slots:   pg.Len(),
		words:   pg.MemWords(),
		pg:      pg,
		ref:     true,
		charged: true,
		ringIdx: -1,
	}
	p.mu.Lock()
	p.ringAddLocked(h)
	p.resident.Add(h.bytes())
	p.evictLocked()
	p.mu.Unlock()
	return h
}

// bytes is the handle's decoded in-memory footprint.
func (h *Handle) bytes() int64 { return int64(h.words) * 8 }

// Desc returns the spill descriptor; ok is false for never-spilled handles.
func (h *Handle) Desc() (Desc, bool) { return h.desc, h.pool != nil }

// Spilled reports whether the handle is backed by the spill file.
func (h *Handle) Spilled() bool { return h.pool != nil }

// Kind returns the page's encoding (from creation-time metadata; no I/O).
func (h *Handle) Kind() page.Kind { return h.kind }

// Len returns the page's slot count (metadata; no I/O).
func (h *Handle) Len() int { return h.slots }

// MemWords returns the page's decoded footprint in words (metadata; no I/O).
func (h *Handle) MemWords() int { return h.words }

// Get reads one slot through a pin/unpin pair — the point-read face used by
// readCols, probeSlot and the base point paths. Spill failures panic (see
// MustPin): a page that cannot be read back is data loss, not a soft miss.
func (h *Handle) Get(i int) uint64 {
	if h.pool == nil {
		return h.res.Get(i)
	}
	pg := h.MustPin()
	v := pg.Get(i)
	h.Unpin()
	return v
}

// AppendTo bulk-decodes the whole page under one pin, making *Handle a
// page.BulkDecoder: the pooled-scratch decode paths (decodeInto) work
// unchanged and never fall back to per-slot pinning.
func (h *Handle) AppendTo(buf []uint64) []uint64 {
	if h.pool == nil {
		return appendSlots(buf, h.res)
	}
	pg := h.MustPin()
	buf = appendSlots(buf, pg)
	h.Unpin()
	return buf
}

func appendSlots(buf []uint64, pg page.Reader) []uint64 {
	if bd, ok := pg.(page.BulkDecoder); ok {
		return bd.AppendTo(buf)
	}
	for i, n := 0, pg.Len(); i < n; i++ {
		buf = append(buf, pg.Get(i))
	}
	return buf
}

// Pin faults the page in if needed and holds it resident until Unpin. The
// returned Reader is the concrete encoded page — predicate binding and
// word-windowed decoding see the real representation. Every successful Pin
// must be paired with exactly one Unpin.
func (h *Handle) Pin() (page.Reader, error) {
	if h.pool == nil {
		return h.res, nil
	}
	h.mu.Lock()
	if h.pg != nil {
		h.pins++
		h.ref = true
		pg := h.pg
		h.mu.Unlock()
		h.pool.hits.Add(1)
		return pg, nil
	}
	h.mu.Unlock()
	return h.pool.load(h)
}

// MustPin is Pin for the engine's read paths, where a spill read or CRC
// failure means the cold half of the data is gone or corrupt: it fails loud
// (panics) rather than letting a scan silently skip pages.
func (h *Handle) MustPin() page.Reader {
	pg, err := h.Pin()
	if err != nil {
		panic(fmt.Sprintf("bufpool: lost spilled base page: %v", err))
	}
	return pg
}

// Unpin releases one pin. The final Unpin of a retired handle drops its
// page immediately (no point keeping a dead version resident); the final
// Unpin of a live handle re-runs the sweep if pins pushed the pool over
// budget, so a quiesced pool always sits at or under its cap.
func (h *Handle) Unpin() {
	if h.pool == nil {
		return
	}
	h.mu.Lock()
	if h.pins <= 0 {
		h.mu.Unlock()
		panic("bufpool: Unpin without a matching Pin")
	}
	h.pins--
	last := h.pins == 0
	var freed int64
	if h.relFlag && last && h.pg != nil {
		h.pg = nil
		if h.charged {
			h.charged = false
			freed = h.bytes()
		}
	}
	h.mu.Unlock()
	if freed > 0 {
		h.pool.dropCharge(h, freed)
		return
	}
	if last && h.pool.resident.Load() > h.pool.cap {
		p := h.pool
		p.mu.Lock()
		p.evictLocked()
		p.mu.Unlock()
	}
}

// Release retires the handle when its page version is unpublished (the merge
// swapped in a successor, or the range was retired). Current pins stay
// valid; once the last one drops, the page leaves the budget. A Release'd
// handle can still be pinned by readers that loaded its version before the
// swap — the spill file is append-only, so the descriptor never dangles —
// but such reloads bypass the budget (they last only as long as those
// readers).
func (h *Handle) Release() {
	if h.pool == nil {
		return
	}
	h.mu.Lock()
	if h.relFlag {
		h.mu.Unlock()
		return
	}
	h.relFlag = true
	var freed int64
	if h.pins == 0 && h.pg != nil {
		h.pg = nil
		if h.charged {
			h.charged = false
			freed = h.bytes()
		}
	}
	h.mu.Unlock()
	if freed > 0 {
		h.pool.dropCharge(h, freed)
	}
}

// ---------------------------------------------------------------------------
// Miss path, eviction, accounting

// load is the miss path: read the frame from the spill file, decode it, and
// install it under the budget. loadMu serializes concurrent misses on the
// same handle so the spill read happens once.
func (p *Pool) load(h *Handle) (page.Reader, error) {
	h.loadMu.Lock()
	defer h.loadMu.Unlock()

	// A racer may have completed the load while we waited on loadMu.
	h.mu.Lock()
	if h.pg != nil {
		h.pins++
		h.ref = true
		pg := h.pg
		h.mu.Unlock()
		p.hits.Add(1)
		return pg, nil
	}
	retired := h.relFlag
	h.mu.Unlock()

	p.misses.Add(1)
	cpMissRead.Hit() // crash here: mid-fault; nothing installed, nothing lost
	payload, err := p.spill.ReadAt(h.desc)
	if err != nil {
		return nil, err
	}
	pg, err := page.UnmarshalEncoded(payload)
	if err != nil {
		return nil, fmt.Errorf("bufpool: spill frame at %d undecodable: %w", h.desc.Off, err)
	}
	if pg.Len() != h.slots || pg.Kind() != h.kind {
		return nil, fmt.Errorf("bufpool: spill frame at %d decodes to %s/%d slots, handle expects %s/%d",
			h.desc.Off, pg.Kind(), pg.Len(), h.kind, h.slots)
	}
	// Install and charge under one pool-lock hold (pool.mu > h.mu is the
	// sweep's edge too), so the sweep can never see the page resident but
	// missing from the ring. The new pin keeps h itself safe from the
	// eviction pass triggered here. Retired handles (late readers of an old
	// version) stay off the ring and outside the budget; their page drops at final
	// Unpin.
	p.mu.Lock()
	h.mu.Lock()
	h.pg = pg
	h.charged = !retired
	h.pins++
	h.ref = true
	h.mu.Unlock()
	if !retired {
		p.resident.Add(h.bytes())
		p.ringAddLocked(h)
		p.evictLocked()
	}
	p.mu.Unlock()
	return pg, nil
}

// ringAddLocked appends h to the CLOCK ring.
//
// locked: p.mu
func (p *Pool) ringAddLocked(h *Handle) {
	h.ringIdx = len(p.frames)
	p.frames = append(p.frames, h)
}

// ringRemoveLocked swap-removes h from the CLOCK ring.
//
// locked: p.mu
func (p *Pool) ringRemoveLocked(h *Handle) {
	i := h.ringIdx
	if i < 0 {
		return
	}
	last := len(p.frames) - 1
	p.frames[i] = p.frames[last]
	p.frames[i].ringIdx = i
	p.frames[last] = nil
	p.frames = p.frames[:last]
	h.ringIdx = -1
	if p.hand > last {
		p.hand = 0
	}
}

// dropCharge returns bytes to the budget and takes the handle off the ring —
// a drop outside the sweep: a retired handle losing its page at Release or
// final Unpin.
func (p *Pool) dropCharge(h *Handle, bytes int64) {
	p.mu.Lock()
	p.resident.Add(-bytes)
	p.ringRemoveLocked(h)
	p.mu.Unlock()
}

// evictLocked runs the CLOCK sweep until the pool fits its budget. Pinned
// and retired frames are skipped; a first pass clears reference bits, a
// second evicts. The sweep is bounded at two revolutions — if everything is
// pinned the pool runs over budget rather than livelocking (Pin can never
// block on Unpin).
//
// locked: p.mu
func (p *Pool) evictLocked() {
	for budget := 2 * len(p.frames); p.resident.Load() > p.cap && budget > 0 && len(p.frames) > 0; budget-- {
		if p.hand >= len(p.frames) {
			p.hand = 0
		}
		h := p.frames[p.hand]
		h.mu.Lock()
		if h.relFlag || h.pg == nil || h.pins > 0 {
			// Pinned, or a retired frame mid-drop (its remover holds h out of
			// the budget the moment it takes p.mu).
			h.mu.Unlock()
			p.hand++
			continue
		}
		if h.ref {
			h.ref = false
			h.mu.Unlock()
			p.hand++
			continue
		}
		h.pg = nil
		h.charged = false
		h.mu.Unlock()
		p.resident.Add(-h.bytes())
		// Swap-remove leaves the swapped-in frame at the hand for the next
		// probe; the hand does not advance.
		p.ringRemoveLocked(h)
		p.evictions.Add(1)
	}
}
