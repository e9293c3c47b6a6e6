package core

import (
	"bytes"
	"sync"

	"owan/internal/topology"
)

// provisionCache memoizes ProvisionEffective results across slots: the map
// from a requested network-layer topology to its effective (optically
// realized) link enumeration is a pure function of (Network, topology) — it
// depends on neither the demand set nor the occupancy left by earlier calls,
// because provisioning always starts from an empty optical state. That makes
// it the one piece of evaluator state that is safe AND profitable to persist
// across ComputeNetworkState invocations: the warm-started slot N+1 topology
// is slot N's output, so the first (and most expensive, cold) energy of
// every slot is a near-guaranteed hit.
//
// It is an arena LRU — index-linked entries, retained key and link buffers,
// full key verification on hit — guarded by a mutex: evaluator workers
// consult it concurrently. get copies the links out under the lock, so an eviction
// racing a hit can never hand a caller a recycled buffer.
//
// The cache is invalidated by dropping it: a controller for a different
// physical network (WithoutFiber) is a new Owan with a fresh cache, and
// SetUnitRegenWeights clears it because the knob changes provisioning.
type provisionCache struct {
	mu         sync.Mutex
	cap        int
	m          map[uint64]int32
	entries    []provEntry
	used       int
	head, tail int32
}

type provEntry struct {
	hash  uint64
	key   []byte
	n     int // number of sites of the cached topology
	links []topology.Link
	// directOnly and segmentOnly record the provisioning run's audit tier
	// (optical.State.DirectOnly/SegmentOnly): directOnly means every circuit
	// was a single direct segment on its pair's PRIMARY route; segmentOnly
	// means every circuit was a direct segment on its primary or one of its
	// precomputed ALTERNATES (no regenerator graph). Only these two classes
	// can be proven still valid after a fiber removal — the first against
	// the primary tables alone, the second against primaries plus the full
	// alternate tables (see migrateFrom).
	directOnly  bool
	segmentOnly bool
	prev, next  int32
	bnext       int32
}

func newProvisionCache(capacity int) *provisionCache {
	if capacity <= 0 {
		return nil
	}
	return &provisionCache{cap: capacity, m: make(map[uint64]int32, capacity), head: -1, tail: -1}
}

func (c *provisionCache) find(hash uint64, key []byte) int32 {
	idx, ok := c.m[hash]
	if !ok {
		return -1
	}
	for ; idx >= 0; idx = c.entries[idx].bnext {
		if bytes.Equal(c.entries[idx].key, key) {
			return idx
		}
	}
	return -1
}

func (c *provisionCache) moveToFront(idx int32) {
	if c.head == idx {
		return
	}
	e := &c.entries[idx]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	}
	if c.tail == idx {
		c.tail = e.prev
	}
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = idx
	}
	c.head = idx
	if c.tail < 0 {
		c.tail = idx
	}
}

func (c *provisionCache) bucketRemove(idx int32) {
	e := &c.entries[idx]
	if head := c.m[e.hash]; head == idx {
		if e.bnext < 0 {
			delete(c.m, e.hash)
		} else {
			c.m[e.hash] = e.bnext
		}
		return
	}
	for p := c.m[e.hash]; p >= 0; p = c.entries[p].bnext {
		if c.entries[p].bnext == idx {
			c.entries[p].bnext = e.bnext
			return
		}
	}
}

// get appends the cached effective links for the topology key to dst and
// returns (links, sites, true) on a hit. The copy happens under the lock;
// the returned slice is dst's backing array, owned by the caller.
func (c *provisionCache) get(hash uint64, key []byte, dst []topology.Link) ([]topology.Link, int, bool) {
	c.mu.Lock()
	idx := c.find(hash, key)
	if idx < 0 {
		c.mu.Unlock()
		return dst, 0, false
	}
	c.moveToFront(idx)
	e := &c.entries[idx]
	dst = append(dst, e.links...)
	n := e.n
	c.mu.Unlock()
	return dst, n, true
}

// put records the effective links of a topology, copying key and links into
// the slot's retained buffers (evicted entries donate theirs). directOnly
// and segmentOnly carry the provisioning run's audit tier (see provEntry).
func (c *provisionCache) put(hash uint64, key []byte, n int, links []topology.Link, directOnly, segmentOnly bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx := c.find(hash, key); idx >= 0 {
		// Pure function: an existing entry already holds exactly these
		// links. Just refresh its recency.
		c.moveToFront(idx)
		return
	}
	var idx int32
	if c.used < c.cap {
		if c.used == len(c.entries) {
			c.entries = append(c.entries, provEntry{})
		}
		idx = int32(c.used)
		c.used++
	} else {
		idx = c.tail
		c.bucketRemove(idx)
		e := &c.entries[idx]
		c.tail = e.prev
		if c.tail >= 0 {
			c.entries[c.tail].next = -1
		}
		if c.head == idx {
			c.head = -1
		}
	}
	e := &c.entries[idx]
	e.hash = hash
	e.key = append(e.key[:0], key...)
	e.n = n
	e.links = append(e.links[:0], links...)
	e.directOnly = directOnly
	e.segmentOnly = segmentOnly
	if h, ok := c.m[hash]; ok {
		e.bnext = h
	} else {
		e.bnext = -1
	}
	c.m[hash] = idx
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = idx
	}
	c.head = idx
	if c.tail < 0 {
		c.tail = idx
	}
}

// migrateFrom copies the still-valid entries of old into c, preserving
// recency order (oldest first, so old's most-recent entry ends up at c's
// LRU front). An entry qualifies when its provisioning run stayed on the
// direct-segment fast path — primary-only (directOnly) or primaries plus
// alternates (segmentOnly) — AND the caller-supplied predicate confirms the
// entry's topology routes identically on the new network at that tier:
// together those prove the cached effective links are what provisioning the
// topology from scratch on the new network would produce, so migration can
// never serve a stale result. The predicate receives the entry's tier so it
// can audit only the tables the run actually consulted. Everything else
// (regenerator-routed entries, entries whose routes moved) is dropped,
// exactly as the old drop-the-world invalidation did for all.
func (c *provisionCache) migrateFrom(old *provisionCache, valid func(key []byte, n int, direct bool) bool) {
	if c == nil || old == nil {
		return
	}
	old.mu.Lock()
	defer old.mu.Unlock()
	for idx := old.tail; idx >= 0; idx = old.entries[idx].prev {
		e := &old.entries[idx]
		if (e.directOnly || e.segmentOnly) && valid(e.key, e.n, e.directOnly) {
			c.put(e.hash, e.key, e.n, e.links, e.directOnly, e.segmentOnly)
		}
	}
}

// clear empties the cache (provisioning-semantics knobs changed); buffers
// are retained.
func (c *provisionCache) clear() {
	c.mu.Lock()
	clear(c.m)
	c.used = 0
	c.head, c.tail = -1, -1
	c.mu.Unlock()
}
