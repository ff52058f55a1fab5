package vnnserver

import (
	"context"

	"repro/pkg/vnn"
)

// Cache is the fingerprint-keyed LRU cache of compiled networks with
// singleflight semantics: N concurrent requests for the same fingerprint
// trigger exactly one vnn.Compile — the first requester compiles, the
// rest wait on the same entry and share the resulting CompiledNetwork
// (which is immutable and safe for concurrent queries). Failed compiles
// are not cached; the next request retries.
//
// Eviction is strict LRU over completed entries. An entry still being
// compiled is never evicted (it is by construction near the front — just
// inserted or just hit), so a capacity-1 cache still deduplicates a burst
// of identical requests.
//
// It is a typed view of the service's one cache implementation (lru).
type Cache struct {
	*lru[*vnn.CompiledNetwork]
}

// NewCache builds a cache holding at most capacity compiled networks
// (<= 0 means defaultCacheEntries).
func NewCache(capacity int) *Cache {
	c := &Cache{newLRU[*vnn.CompiledNetwork](capacity)}
	c.sizeOf = (*vnn.CompiledNetwork).SizeBytes
	return c
}

// GetOrCompile returns the compiled network cached under key, compiling
// it via compile on a miss. The bool reports whether the call was a cache
// hit (true for every waiter that joined an in-flight compile — the
// compile they did NOT perform is exactly the point). ctx bounds only
// this caller's wait: a waiter whose context fires stops waiting, but the
// in-flight compile continues for everyone else — the caller owning the
// compile runs it to completion under whatever context compile itself
// uses (the server passes its lifetime context, so only drain interrupts
// a shared compile, never one impatient client).
func (c *Cache) GetOrCompile(ctx context.Context, key string, compile func() (*vnn.CompiledNetwork, error)) (*vnn.CompiledNetwork, bool, error) {
	return c.getOrCompute(ctx, key, compile)
}

// Keys snapshots the fingerprints of every completed entry (in-flight
// compiles are excluded: they have no artifact to export yet). This is
// the fleet plane's set enumeration.
func (c *Cache) Keys() []string {
	arts := c.snapshot()
	out := make([]string, len(arts))
	for i, a := range arts {
		out[i] = a.key
	}
	return out
}

// Peek returns the completed entry cached under key without touching
// LRU order or hit/miss counters — a read-only export lookup, not a
// serving access.
func (c *Cache) Peek(key string) (*vnn.CompiledNetwork, bool) {
	return c.lookup(key, false)
}

// Import inserts an externally obtained compiled artifact under key,
// through the same singleflight discipline as GetOrCompile but without
// counting a miss (nothing was compiled here — that is the point of
// replication). If key is already cached or in flight the existing
// entry wins and Import reports false: a concurrent local compile and
// a remote pull collapse to one entry either way.
func (c *Cache) Import(key string, cn *vnn.CompiledNetwork) bool {
	return c.add(key, cn)
}

// Contains reports whether key is cached, without touching LRU order.
func (c *Cache) Contains(key string) bool { return c.contains(key) }

// Len returns the number of cached (including in-flight) entries.
func (c *Cache) Len() int { return c.size() }

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats { return c.stats() }
