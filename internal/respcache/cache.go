// Package respcache is a byte-budget LRU cache of fully encoded HTTP
// response bodies for the serving layer. The server keeps one kind of
// entry in it: the assembled gzip body of a batch viewport.
//
// The cache exploits the core package's snapshot invariant: a published
// cube snapshot and every sample table in it are immutable, and
// {shard, shard generation, sampleID} names one byte-identical payload
// forever. Keys embed those identities, so the cache needs no explicit
// invalidation — an Append publishes a successor snapshot that bumps
// only the generations of the shards it touched, new requests touching
// those shards key under the new generations, and the stale entries
// simply go cold and fall out of the LRU. Entries keyed to untouched
// shards keep their identities and stay hot across the append.
// Coherence costs zero locks on the cube side and one short mutex hold
// here.
//
// First hits are deduplicated singleflight-style: when N requests miss
// the same key concurrently, one caller runs the fill and the other N-1
// block on it and share the result, so a popular viewport arriving in a
// thundering herd (a dashboard pan fanning out to many users) is
// assembled exactly once.
package respcache

import (
	"container/list"
	"sync"

	"github.com/tabula-db/tabula/internal/obs"
)

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Entries and Bytes describe current residency.
	Entries int
	Bytes   int64
	// Hits, Misses and Evictions are cumulative. A request that joins an
	// in-flight encode counts as a Shared, not a Hit or a Miss.
	Hits      int64
	Misses    int64
	Shared    int64
	Evictions int64
}

// Cache is a byte-budget LRU of immutable byte payloads with
// singleflight fill deduplication. The zero value is not usable; use
// New. A nil *Cache is a valid always-miss cache: Get runs fill every
// time (serving stays correct with caching disabled).
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	order   *list.List // front = most recently used; values are *entry
	entries map[string]*list.Element
	flight  map[string]*call
	stats   Stats
}

type entry struct {
	key string
	val []byte
}

type call struct {
	wg  sync.WaitGroup
	val []byte
	err error
}

// New creates a cache holding at most budget bytes of payload (key and
// bookkeeping overhead is not counted). A budget <= 0 returns nil, the
// always-miss cache.
func New(budget int64) *Cache {
	if budget <= 0 {
		return nil
	}
	return &Cache{
		budget:  budget,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		flight:  make(map[string]*call),
	}
}

// Get returns the payload cached under key, filling it with fill on a
// miss. Concurrent Gets for the same missing key run fill once and share
// its result. A fill error is returned to every waiter and nothing is
// cached, so a transient failure does not poison the key. The returned
// slice is shared and MUST NOT be modified by callers.
func (c *Cache) Get(key string, fill func() ([]byte, error)) ([]byte, error) {
	if c == nil {
		return fill()
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		v := el.Value.(*entry).val
		c.mu.Unlock()
		return v, nil
	}
	if cl, ok := c.flight[key]; ok {
		c.stats.Shared++
		c.mu.Unlock()
		cl.wg.Wait()
		return cl.val, cl.err
	}
	cl := &call{}
	cl.wg.Add(1)
	c.flight[key] = cl
	c.stats.Misses++
	c.mu.Unlock()

	val, err := fill()
	cl.val, cl.err = val, err
	cl.wg.Done()

	c.mu.Lock()
	delete(c.flight, key)
	if err == nil {
		c.insert(key, val)
	}
	c.mu.Unlock()
	return val, err
}

// Peek returns the payload cached under key without filling, for tests
// and introspection. It still counts as a use for LRU ordering.
func (c *Cache) Peek(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// insert stores val under key and evicts from the LRU tail until the
// budget holds. Caller holds c.mu. An oversized value (> budget) is not
// cached at all rather than evicting everything for a single entry.
func (c *Cache) insert(key string, val []byte) {
	if int64(len(val)) > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok {
		// A racing fill of the same key already landed; keep the newer
		// bytes (they are identical by the immutability contract).
		c.bytes += int64(len(val)) - int64(len(el.Value.(*entry).val))
		el.Value.(*entry).val = val
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&entry{key: key, val: val})
		c.bytes += int64(len(val))
	}
	for c.bytes > c.budget {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*entry)
		c.order.Remove(tail)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.val))
		c.stats.Evictions++
	}
}

// Reset drops every cached entry (in-flight fills are unaffected and
// will insert into the emptied cache). Counters are preserved.
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[string]*list.Element)
	c.bytes = 0
}

// RegisterMetrics registers the cache's effectiveness counters into reg
// as sampled series read from Stats() at scrape time:
//
//	tabula_respcache_hits_total / _misses_total / _evictions_total
//	tabula_respcache_coalesced_total   (singleflight waiters that shared
//	                                    an in-flight fill)
//	tabula_respcache_entries / tabula_respcache_bytes (residency gauges)
//
// Sampling at scrape time means the metrics surface costs the Get hot
// path nothing — the counters the cache already maintains under its
// mutex ARE the exported numbers, so benchmark reports (bench/ reads
// them over GET /v1/cache) and /metrics cannot drift apart. Both
// receivers are nil-safe: a nil cache (caching disabled) registers
// all-zero series, a nil registry registers nothing.
func (c *Cache) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("tabula_respcache_hits_total", "Response-cache hits.",
		func() float64 { return float64(c.Stats().Hits) })
	reg.CounterFunc("tabula_respcache_misses_total", "Response-cache misses (fills run).",
		func() float64 { return float64(c.Stats().Misses) })
	reg.CounterFunc("tabula_respcache_evictions_total", "Response-cache LRU evictions.",
		func() float64 { return float64(c.Stats().Evictions) })
	reg.CounterFunc("tabula_respcache_coalesced_total", "Requests that joined an in-flight singleflight fill.",
		func() float64 { return float64(c.Stats().Shared) })
	reg.GaugeFunc("tabula_respcache_entries", "Response-cache resident entries.",
		func() float64 { return float64(c.Stats().Entries) })
	reg.GaugeFunc("tabula_respcache_bytes", "Response-cache resident payload bytes.",
		func() float64 { return float64(c.Stats().Bytes) })
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	st.Bytes = c.bytes
	return st
}
