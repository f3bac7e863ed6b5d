package store

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sperr/internal/grid"
)

// chunkKey identifies one decoded slab: a volume's content address plus
// the chunk's container-order index.
type chunkKey struct {
	ID    string
	Chunk int
}

// slabEntry is one resident decoded chunk. Data is shared with readers
// and must be treated as immutable once inserted.
type slabEntry struct {
	key  chunkKey
	box  grid.Box // the chunk's box in volume coordinates
	data []float64
}

func (e *slabEntry) samples() int64 { return int64(len(e.data)) }

// SlabCache is the decoded hot tier: a chunk-granularity LRU of decoded
// float64 slabs, bounded two ways. Its own capSamples cap bounds what the
// cache may hold at most, and every resident sample is additionally
// charged through the charge/release hooks against the shared admission
// budget — so decoded cache memory and in-flight decode memory compete
// for one ceiling, and an insert that the budget cannot absorb evicts
// from the cold end or is simply not cached (a cache is allowed to drop;
// it is never allowed to overspend).
//
// Lock ordering: SlabCache.mu may be held while calling charge/release
// (which take the admission lock); the admission controller only calls
// back into the cache (Shed) with its own lock released.
type SlabCache struct {
	capSamples int64
	charge     func(int64) bool
	release    func(int64)
	onEvict    func(int64)
	onResident func(int64)

	mu       sync.Mutex
	resident int64
	peak     int64
	ll       *list.List // front = most recently used
	entries  map[chunkKey]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

func newSlabCache(capSamples int64, charge func(int64) bool, release func(int64),
	onEvict, onResident func(int64)) *SlabCache {
	return &SlabCache{
		capSamples: capSamples,
		charge:     charge,
		release:    release,
		onEvict:    onEvict,
		onResident: onResident,
		ll:         list.New(),
		entries:    make(map[chunkKey]*list.Element),
	}
}

// Get returns the resident slab for k (promoting it to most recently
// used) or nil. The returned entry's data is shared — read only.
func (c *SlabCache) Get(k chunkKey) *slabEntry {
	c.mu.Lock()
	el, ok := c.entries[k]
	if ok {
		c.ll.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return el.Value.(*slabEntry)
}

// Contains reports residency without promoting (the planning probe).
func (c *SlabCache) Contains(k chunkKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

// Insert makes e resident, evicting cold slabs as needed to fit both the
// cache's own cap and the external budget. It reports whether the entry
// is resident on return (false = not cacheable right now; the caller's
// decoded data is still valid, it just will not be reused).
func (c *SlabCache) Insert(e *slabEntry) bool {
	n := e.samples()
	if n == 0 || c.capSamples <= 0 || n > c.capSamples {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[e.key]; ok {
		return true // raced with another decode of the same chunk
	}
	for c.resident+n > c.capSamples {
		if !c.evictOldestLocked() {
			return false
		}
	}
	if c.charge != nil {
		for !c.charge(n) {
			// The shared budget is full (in-flight decodes or other
			// residents hold it): shed our own cold end and retry; if the
			// cache is empty the budget is busy elsewhere — skip caching.
			if !c.evictOldestLocked() {
				return false
			}
		}
	}
	c.resident += n
	if c.resident > c.peak {
		c.peak = c.resident
	}
	c.entries[e.key] = c.ll.PushFront(e)
	if c.onResident != nil {
		c.onResident(c.resident)
	}
	return true
}

// evictOldestLocked drops the least recently used slab, returning false
// when the cache is empty.
func (c *SlabCache) evictOldestLocked() bool {
	el := c.ll.Back()
	if el == nil {
		return false
	}
	c.removeLocked(el)
	return true
}

func (c *SlabCache) removeLocked(el *list.Element) {
	e := el.Value.(*slabEntry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	n := e.samples()
	c.resident -= n
	if c.release != nil {
		c.release(n)
	}
	c.evictions.Add(1)
	if c.onEvict != nil {
		c.onEvict(n)
	}
	if c.onResident != nil {
		c.onResident(c.resident)
	}
}

// Shed evicts from the cold end until at least need samples have been
// released (or the cache is empty), returning the samples freed. This is
// the admission controller's reclaim hook: a decode request that does not
// fit pushes the cache out of the shared budget, cold-first.
func (c *SlabCache) Shed(need int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var freed int64
	for freed < need {
		el := c.ll.Back()
		if el == nil {
			break
		}
		freed += el.Value.(*slabEntry).samples()
		c.removeLocked(el)
	}
	return freed
}

// Invalidate drops every resident slab of the given volume, returning how
// many were dropped.
func (c *SlabCache) Invalidate(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var drop []*list.Element
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*slabEntry).key.ID == id {
			drop = append(drop, el)
		}
	}
	for _, el := range drop {
		c.removeLocked(el)
	}
	return len(drop)
}

// Purge evicts everything (releasing all budget charges).
func (c *SlabCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.evictOldestLocked() {
	}
}

// Resident returns the current residency in samples — the gauge the
// concurrency tier asserts never exceeds the budget.
func (c *SlabCache) Resident() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

// PeakResident returns the residency high-water mark.
func (c *SlabCache) PeakResident() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// Cap returns the configured residency cap (0 = caching disabled).
func (c *SlabCache) Cap() int64 { return c.capSamples }

// Len returns the number of resident slabs.
func (c *SlabCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits, Misses and Evictions are cumulative event counters.
func (c *SlabCache) Hits() int64      { return c.hits.Load() }
func (c *SlabCache) Misses() int64    { return c.misses.Load() }
func (c *SlabCache) Evictions() int64 { return c.evictions.Load() }
