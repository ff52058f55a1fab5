package vnnserver

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// defaultCacheEntries is the cache capacity when the config leaves it
// zero. Compiled networks are a few MB for the paper's predictors; 64 of
// them fit comfortably while covering many retrain iterations of several
// networks × regions × option sets.
const defaultCacheEntries = 64

// lru is the service's one artifact cache: a string-keyed LRU with
// singleflight semantics. The compile cache, the monitor store, the
// monitor build memo and the by-fingerprint workload cache are all
// instances of it, used bare.
//
// N concurrent getOrCompute calls for the same key run compute exactly
// once — the first caller computes, the rest wait on the same entry and
// share the value (which must be immutable and safe to share). Failed
// computes are not cached; the next request retries.
//
// Eviction is strict LRU over completed entries, O(1) per touch and per
// eviction. An entry still being computed is never evicted (it is by
// construction near the front — just inserted or just hit), so a
// capacity-1 cache still deduplicates a burst of identical requests.
type lru[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // values are *lruEntry[V]
	order    *list.List               // front = most recently used

	// sizeOf is each value's accounted size (zero unless the owner sets
	// it); the sum over completed entries is the cache's bytes figure. It
	// runs outside mu.
	sizeOf func(V) int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64 // accounted size of completed entries
}

// lruEntry is one cached (or in-flight) value.
type lruEntry[V any] struct {
	key   string
	ready chan struct{} // closed once val/err are set
	val   V
	err   error
	// size is the entry's accounted bytes, written before ready closes;
	// eviction only reads it for completed entries.
	size int64
	// added timestamps the entry's insertion (the GET /v1/workloads age).
	added time.Time
}

func (e *lruEntry[V]) completed() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// closedReady is the ready channel of entries that were never in flight.
var closedReady = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// newLRU builds a cache holding at most capacity values (<= 0 means
// defaultCacheEntries). The size func is set by the owner
// before first use.
func newLRU[V any](capacity int) *lru[V] {
	if capacity <= 0 {
		capacity = defaultCacheEntries
	}
	return &lru[V]{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		sizeOf:   func(V) int64 { return 0 },
	}
}

// getOrCompute returns the value cached under key, computing it on a
// miss. The bool reports whether the call was a cache hit (true for every
// waiter that joined an in-flight compute — the work they did NOT perform
// is exactly the point). ctx bounds only this caller's wait: a waiter
// whose context fires stops waiting, but the in-flight compute continues
// for everyone else — the caller owning it runs it to completion under
// whatever context compute itself uses.
func (c *lru[V]) getOrCompute(ctx context.Context, key string, compute func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*lruEntry[V])
		c.order.MoveToFront(el)
		c.hits.Add(1)
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.val, true, e.err
		case <-ctx.Done():
			var zero V
			return zero, true, ctx.Err()
		}
	}
	e := &lruEntry[V]{key: key, ready: make(chan struct{}), added: time.Now()}
	el := c.insertLocked(e)
	c.misses.Add(1)
	c.mu.Unlock()

	v, err := compute()
	var size int64
	if err == nil {
		size = c.sizeOf(v)
	}
	// Completion happens under mu, so the entry cannot have been evicted
	// in between: until ready closes it is in flight.
	c.mu.Lock()
	e.val, e.err, e.size = v, err, size
	close(e.ready)
	if err != nil {
		// Do not cache failures: the next request retries.
		c.order.Remove(el)
		delete(c.entries, key)
	} else {
		c.bytes.Add(size)
	}
	c.mu.Unlock()
	return v, false, err
}

// add inserts an externally obtained value under key without counting a
// miss (nothing was computed here). If key is already cached or in flight
// the existing entry wins — it is touched, and add reports false.
func (c *lru[V]) add(key string, v V) bool {
	size := c.sizeOf(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return false
	}
	// Accounted before inserted: if everything older is still in flight
	// the insert evicts the new entry itself.
	c.bytes.Add(size)
	c.insertLocked(&lruEntry[V]{key: key, ready: closedReady, val: v, size: size, added: time.Now()})
	return true
}

// insertLocked makes e the most recently used entry, then drops
// least-recently-used completed entries until the cache fits its
// capacity again. This is the only eviction routine.
func (c *lru[V]) insertLocked(e *lruEntry[V]) *list.Element {
	inserted := c.order.PushFront(e)
	c.entries[e.key] = inserted
	for el := c.order.Back(); el != nil && c.order.Len() > c.capacity; {
		prev := el.Prev()
		// An entry still computing is skipped — see the type comment.
		if old := el.Value.(*lruEntry[V]); old.completed() {
			c.order.Remove(el)
			delete(c.entries, old.key)
			c.evictions.Add(1)
			c.bytes.Add(-old.size)
		}
		el = prev
	}
	return inserted
}

// lookup returns the completed value cached under key (an in-flight
// entry reads as absent), moving it to the most-recently-used position
// when touch is set. It never counts a hit: it is a by-key read, not a
// compute that was saved.
func (c *lru[V]) lookup(key string, touch bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		if e := el.Value.(*lruEntry[V]); e.completed() {
			if touch {
				c.order.MoveToFront(el)
			}
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// contains reports whether key is cached or in flight, without touching
// LRU order.
func (c *lru[V]) contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// size returns the number of cached (including in-flight) entries.
func (c *lru[V]) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// cachedArtifact is one completed entry's index row — the raw material of
// GET /v1/workloads (see workloads.go) and of the fleet plane's set
// enumeration.
type cachedArtifact struct {
	key   string
	bytes int64
	added time.Time
}

// snapshot lists every completed entry, most recently used first,
// without touching LRU order or hit counters (in-flight computes are
// excluded: they have no artifact yet).
func (c *lru[V]) snapshot() []cachedArtifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cachedArtifact, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*lruEntry[V]); e.completed() {
			out = append(out, cachedArtifact{key: e.key, bytes: e.size, added: e.added})
		}
	}
	return out
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	// Bytes is the accounted resident size of completed entries
	// (vnn.CompiledNetwork.SizeBytes summed over the cache).
	Bytes int64 `json:"bytes"`
}

func (c *lru[V]) stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.size(),
		Capacity:  c.capacity,
		Bytes:     c.bytes.Load(),
	}
}
