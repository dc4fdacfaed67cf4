// Package pagedir implements L-Store's page directory (§2.1, §4.1 step 4):
// "an index structure that is updated rarely, only when new pages are
// allocated", plus the pointer swap that is the merge process's only
// foreground action. The engine keeps one directory per table, of the
// spill descriptors of its spilled base pages, keyed by range and page
// slot. Reads never consult it: a range's published version holds its base
// pages, and a chain walk finds its tail blocks in the range's own list.
//
// The directory is a lock-striped hash map. Point lookups take a shared
// stripe latch; Put/Swap take an exclusive stripe latch, mirroring the
// paper's per-entry latching (§5.1.2: "every affected page in the page
// directory is latched one at a time to perform the pointer swap").
package pagedir

import "sync"

const stripeCount = 64

// Directory maps uint64 keys to values (spill descriptors). The zero value
// is not usable; call New.
type Directory[V any] struct {
	shards [stripeCount]shard[V]
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[uint64]V // guarded by mu
}

// New returns an empty directory.
func New[V any]() *Directory[V] {
	d := &Directory[V]{}
	for i := range d.shards {
		d.shards[i].m = make(map[uint64]V)
	}
	return d
}

func (d *Directory[V]) shard(k uint64) *shard[V] {
	// splitmix64 finalizer: directory keys are sequential indexes.
	x := k
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return &d.shards[x%stripeCount]
}

// Get returns the value for k.
func (d *Directory[V]) Get(k uint64) (V, bool) {
	s := d.shard(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

// Put installs k → v unconditionally.
func (d *Directory[V]) Put(k uint64, v V) {
	s := d.shard(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// Swap replaces the value for k and returns the previous value. This is the
// merge process's pointer swap; ok reports whether k was present.
func (d *Directory[V]) Swap(k uint64, v V) (old V, ok bool) {
	s := d.shard(k)
	s.mu.Lock()
	old, ok = s.m[k]
	s.m[k] = v
	s.mu.Unlock()
	return old, ok
}

// Delete removes k (used when historic tail pages are permanently
// discarded).
func (d *Directory[V]) Delete(k uint64) {
	s := d.shard(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// Len returns the number of entries.
func (d *Directory[V]) Len() int {
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for each entry until fn returns false, holding one stripe
// latch at a time.
//
// fn runs UNDER that stripe's read latch, so it must not call Put, Swap, or
// Delete on the directory: a write to a key that hashes to the stripe being
// iterated self-deadlocks on the stripe's write latch (sync.RWMutex is not
// reentrant, and a pending writer also blocks any further RLock). Lookups
// from fn are safe — read latches are shared — and writes to OTHER stripes
// merely risk blocking behind this iteration; collect mutations during the
// walk and apply them after Range returns.
func (d *Directory[V]) Range(fn func(k uint64, v V) bool) {
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}
