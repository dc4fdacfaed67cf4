// Package index provides L-Store's index structures. Per §3.1, indexes
// always point to base records (base RIDs) and never to tail records, which
// eliminates index maintenance on version creation: an update touches only
// the indexes of changed columns, and even those keep pointing at base RIDs.
// Readers landing on a base record via an index must re-evaluate the query
// predicate against the visible version (stale entries are legal).
//
// Primary is a unique key → base-RID map; Secondary is a value → base-RID
// multi-map that only grows. Both are lock-striped hash structures:
// point lookups dominate the workloads of §6 and stripes keep writer
// contention bounded.
package index

import (
	"sync"

	"lstore/internal/types"
)

const stripeCount = 64

// Primary is the unique primary-key index.
type Primary struct {
	stripes [stripeCount]primaryStripe
}

type primaryStripe struct {
	mu sync.RWMutex
	m  map[uint64]types.RID // guarded by mu
}

// NewPrimary returns an empty primary index.
func NewPrimary() *Primary {
	p := &Primary{}
	for i := range p.stripes {
		p.stripes[i].m = make(map[uint64]types.RID)
	}
	return p
}

func (p *Primary) stripe(key uint64) *primaryStripe {
	return &p.stripes[hash64(key)%stripeCount]
}

// Get returns the base RID for key.
func (p *Primary) Get(key uint64) (types.RID, bool) {
	s := p.stripe(key)
	s.mu.RLock()
	r, ok := s.m[key]
	s.mu.RUnlock()
	return r, ok
}

// PutIfAbsent installs key → rid unless the key is present; it returns the
// winning RID and whether this call installed it. Uniqueness races between
// concurrent inserters resolve here.
func (p *Primary) PutIfAbsent(key uint64, rid types.RID) (types.RID, bool) {
	s := p.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.m[key]; ok {
		return cur, false
	}
	s.m[key] = rid
	return rid, true
}

// Replace swaps the RID stored for key if it currently equals old. Used for
// delete-then-reinsert of the same key.
func (p *Primary) Replace(key uint64, old, new types.RID) bool {
	s := p.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.m[key]; !ok || cur != old {
		return false
	}
	s.m[key] = new
	return true
}

// Delete removes the key (used only by recovery rebuilds; normal operation
// defers removal per §3.1 footnote 3).
func (p *Primary) Delete(key uint64) {
	s := p.stripe(key)
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

// Len returns the number of entries.
func (p *Primary) Len() int {
	n := 0
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every (key, rid) pair until fn returns false. The
// iteration holds one stripe lock at a time; entries added or removed during
// iteration may or may not be observed.
func (p *Primary) Range(fn func(key uint64, rid types.RID) bool) {
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.RLock()
		for k, r := range s.m {
			if !fn(k, r) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

// ---------------------------------------------------------------------------

// Secondary is a non-unique value → base-RID multi-map. Updating column C of
// record b from v to v' adds (v', b) and leaves the old entry (v, b) in
// place, so index readers must re-check predicates (§3.1). A value that
// returns (v → v' → v) adds (v, b) again, so probes collapse repeats. Stale
// and repeated pairs stay until a cleanup pass (not yet built) removes them.
type Secondary struct {
	stripes [stripeCount]secondaryStripe
}

type secondaryStripe struct {
	mu sync.RWMutex
	m  map[uint64][]types.RID // guarded by mu
}

// NewSecondary returns an empty secondary index.
func NewSecondary() *Secondary {
	s := &Secondary{}
	for i := range s.stripes {
		s.stripes[i].m = make(map[uint64][]types.RID)
	}
	return s
}

func (s *Secondary) stripe(v uint64) *secondaryStripe {
	return &s.stripes[hash64(v)%stripeCount]
}

// Add appends (value, rid), even when the exact pair is already present:
// the cost of a write must not grow with the RIDs stored under its value.
func (s *Secondary) Add(value uint64, rid types.RID) {
	st := s.stripe(value)
	st.mu.Lock()
	st.m[value] = append(st.m[value], rid)
	st.mu.Unlock()
}

// LookupAppend appends the base RIDs whose (possibly stale, possibly
// repeated) entry matches value to dst and returns the extended slice. The
// copy happens under the stripe read lock, so callers may retain and reuse
// dst freely — hot probe loops pass a recycled buffer and allocate nothing
// per probe.
func (s *Secondary) LookupAppend(dst []types.RID, value uint64) []types.RID {
	st := s.stripe(value)
	st.mu.RLock()
	dst = append(dst, st.m[value]...)
	st.mu.RUnlock()
	return dst
}

// Lookup returns a copy of the base RIDs whose (possibly stale, possibly
// repeated) entry matches value.
func (s *Secondary) Lookup(value uint64) []types.RID {
	return s.LookupAppend(make([]types.RID, 0, 4), value)
}

// Remove deletes one copy of the exact (value, rid) pair, for a cleanup pass
// that drops pairs no snapshot can see (not yet built; only tests call it).
func (s *Secondary) Remove(value uint64, rid types.RID) {
	st := s.stripe(value)
	st.mu.Lock()
	defer st.mu.Unlock()
	rids := st.m[value]
	for i, r := range rids {
		if r == rid {
			rids[i] = rids[len(rids)-1]
			rids = rids[:len(rids)-1]
			if len(rids) == 0 {
				delete(st.m, value)
			} else {
				st.m[value] = rids
			}
			return
		}
	}
}

// Entries returns the total number of (value, rid) pairs (introspection).
func (s *Secondary) Entries() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for _, rids := range st.m {
			n += len(rids)
		}
		st.mu.RUnlock()
	}
	return n
}

// hash64 is splitmix64's finalizer — cheap and well distributed for both
// sequential keys and encoded values.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
