package vnnserver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/pkg/vnn"
)

// newCompileCache is the server's compile cache on its own: the bare lru
// of compiled networks, sized as New sizes it.
func newCompileCache(capacity int) *lru[*vnn.CompiledNetwork] {
	c := newLRU[*vnn.CompiledNetwork](capacity)
	c.sizeOf = (*vnn.CompiledNetwork).SizeBytes
	return c
}

// fakeCompile returns a distinct (empty) compiled-network pointer; cache
// mechanics tests don't need a real compilation.
func fakeCompile() (*vnn.CompiledNetwork, error) {
	return &vnn.CompiledNetwork{}, nil
}

// TestCacheLRUEvictionOrder pins strict LRU semantics: touching an entry
// protects it, the least recently used one goes first.
func TestCacheLRUEvictionOrder(t *testing.T) {
	ctx := context.Background()
	c := newCompileCache(2)
	mustGet := func(key string) bool {
		t.Helper()
		_, hit, err := c.getOrCompute(ctx, key, fakeCompile)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}

	if hit := mustGet("A"); hit {
		t.Fatal("first A was a hit")
	}
	mustGet("B")
	if hit := mustGet("A"); !hit {
		t.Fatal("second A was not a hit")
	}
	mustGet("C") // evicts B: A was touched more recently

	if !c.contains("A") || !c.contains("C") {
		t.Fatal("A and C should have survived")
	}
	if c.contains("B") {
		t.Fatal("B should have been evicted (LRU)")
	}
	st := c.stats()
	if st.Evictions != 1 || st.Size != 2 || st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("stats %+v, want 1 eviction, size 2, 1 hit, 3 misses", st)
	}

	// B misses again after eviction.
	if hit := mustGet("B"); hit {
		t.Fatal("evicted B reported a hit")
	}
}

// TestCacheSingleflight64: 64 goroutines requesting the same fingerprint
// while its compile is in flight run the compute exactly once and share
// its value. The compile is held open until every other caller has
// joined, so the stampede is real. (That a server's stampede costs one
// compile's passes is TestServer64ConcurrentIdenticalOneCompile's half.)
func TestCacheSingleflight64(t *testing.T) {
	const clients = 64
	c := newCompileCache(4)
	var computes atomic.Int64
	compile := func() (*vnn.CompiledNetwork, error) {
		computes.Add(1)
		for c.hits.Load() < clients-1 {
			runtime.Gosched()
		}
		return fakeCompile()
	}

	var wg sync.WaitGroup
	cns := make([]*vnn.CompiledNetwork, clients)
	hits := make([]bool, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			cns[slot], hits[slot], errs[slot] = c.getOrCompute(context.Background(), "K", compile)
		}(i)
	}
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("64 concurrent requests ran the compile %d times, want 1", n)
	}
	misses := 0
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if cns[i] == nil || cns[i] != cns[0] {
			t.Fatalf("client %d got a different compiled network", i)
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d cache misses across the stampede, want exactly 1", misses)
	}
	if st := c.stats(); st.Misses != 1 || st.Hits != clients-1 {
		t.Fatalf("cache stats %+v, want 1 miss / %d hits", st, clients-1)
	}
}

// TestCacheErrorNotCached pins that failed compiles are retried, not
// poisoned into the cache.
func TestCacheErrorNotCached(t *testing.T) {
	ctx := context.Background()
	c := newCompileCache(4)
	boom := errors.New("boom")
	calls := 0
	compile := func() (*vnn.CompiledNetwork, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return fakeCompile()
	}
	if _, _, err := c.getOrCompute(ctx, "K", compile); !errors.Is(err, boom) {
		t.Fatalf("first call err = %v, want boom", err)
	}
	if c.contains("K") {
		t.Fatal("failed compile was cached")
	}
	cn, hit, err := c.getOrCompute(ctx, "K", compile)
	if err != nil || hit || cn == nil {
		t.Fatalf("retry: cn=%v hit=%v err=%v", cn, hit, err)
	}
	if calls != 2 {
		t.Fatalf("compile ran %d times, want 2", calls)
	}
}

// TestCacheWaiterContext pins that a waiter's dead context stops its wait
// without killing the in-flight compile for everyone else.
func TestCacheWaiterContext(t *testing.T) {
	c := newCompileCache(4)
	gate := make(chan struct{})
	started := make(chan struct{})

	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := c.getOrCompute(context.Background(), "K", func() (*vnn.CompiledNetwork, error) {
			close(started)
			<-gate
			return fakeCompile()
		})
		ownerDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.getOrCompute(ctx, "K", fakeCompile); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}

	close(gate)
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner: %v", err)
	}
	// The entry completed and is served from cache afterwards.
	cn, hit, err := c.getOrCompute(context.Background(), "K", func() (*vnn.CompiledNetwork, error) {
		return nil, fmt.Errorf("must not recompile")
	})
	if err != nil || !hit || cn == nil {
		t.Fatalf("post-stampede get: cn=%v hit=%v err=%v", cn, hit, err)
	}
}

// TestCacheImportAndBytes pins the fleet's non-counting import path and
// the byte accounting: imports are not misses, collide safely with
// cached keys, and bytes fall on eviction.
func TestCacheImportAndBytes(t *testing.T) {
	c := newCompileCache(1)
	if !c.add("A", &vnn.CompiledNetwork{}) {
		t.Fatal("import into empty cache failed")
	}
	st := c.stats()
	if st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("import counted as traffic: %+v", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("imported entry accounts %d bytes", st.Bytes)
	}
	perEntry := st.Bytes

	if c.add("A", &vnn.CompiledNetwork{}) {
		t.Fatal("duplicate import succeeded")
	}
	if !c.add("B", &vnn.CompiledNetwork{}) { // evicts A (capacity 1)
		t.Fatal("second import failed")
	}
	st = c.stats()
	if st.Size != 1 || st.Bytes != perEntry {
		t.Fatalf("eviction did not release bytes: %+v", st)
	}
	if arts := c.snapshot(); len(arts) != 1 || arts[0].key != "B" {
		t.Fatalf("snapshot %v, want just B", arts)
	}
	if _, ok := c.lookup("B", false); !ok {
		t.Fatal("export lookup missed the imported entry")
	}
	if st := c.stats(); st.Hits != 0 {
		t.Fatal("export lookup counted as a hit")
	}
}
