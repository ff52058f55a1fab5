package vnnserver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// lruModel is the naive reference the generic LRU is checked against: a
// slice in most-recently-used-first order, scanned linearly.
type lruModel struct {
	capacity int
	entries  []modelEntry
	hits     int64
	misses   int64
	evicted  int64
	bytes    int64
	readied  []string // onReady calls, in order ("key=val")
	dropped  []string // onDrop calls, in order
}

type modelEntry struct {
	key      string
	val      int
	inFlight bool
}

func modelSize(v int) int64 { return int64(v%7 + 1) }

func (m *lruModel) find(key string) int {
	for i, e := range m.entries {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (m *lruModel) touch(i int) {
	e := m.entries[i]
	copy(m.entries[1:i+1], m.entries[:i])
	m.entries[0] = e
}

// insert puts e in front and evicts completed entries from the back.
func (m *lruModel) insert(e modelEntry) {
	m.entries = append([]modelEntry{e}, m.entries...)
	for i := len(m.entries) - 1; i >= 0 && len(m.entries) > m.capacity; i-- {
		if old := m.entries[i]; !old.inFlight {
			m.entries = append(m.entries[:i], m.entries[i+1:]...)
			m.evicted++
			m.bytes -= modelSize(old.val)
			m.dropped = append(m.dropped, fmt.Sprintf("%s=%d", old.key, old.val))
		}
	}
}

func (m *lruModel) stored(key string, val int) {
	m.bytes += modelSize(val)
	m.readied = append(m.readied, fmt.Sprintf("%s=%d", key, val))
}

// begin models the locked first half of getOrCompute; it reports a hit.
func (m *lruModel) begin(key string) bool {
	if i := m.find(key); i >= 0 {
		m.touch(i)
		m.hits++
		return true
	}
	m.insert(modelEntry{key: key, inFlight: true})
	m.misses++
	return false
}

// complete models the locked second half of a miss.
func (m *lruModel) complete(key string, val int, failed bool) {
	i := m.find(key)
	if failed {
		m.entries = append(m.entries[:i], m.entries[i+1:]...)
		return
	}
	m.entries[i].val, m.entries[i].inFlight = val, false
	m.stored(key, val)
}

func (m *lruModel) add(key string, val int) bool {
	if i := m.find(key); i >= 0 {
		m.touch(i)
		return false
	}
	m.stored(key, val)
	m.insert(modelEntry{key: key, val: val})
	return true
}

func (m *lruModel) lookup(key string, touch bool) (int, bool) {
	i := m.find(key)
	if i < 0 || m.entries[i].inFlight {
		return 0, false
	}
	v := m.entries[i].val
	if touch {
		m.touch(i)
	}
	return v, true
}

func (m *lruModel) completedKeys() []string {
	out := []string{}
	for _, e := range m.entries {
		if !e.inFlight {
			out = append(out, e.key)
		}
	}
	return out
}

// lruHarness drives one lru and its model in lockstep.
type lruHarness struct {
	t       *testing.T
	c       *lru[int]
	m       *lruModel
	readied []string
	dropped []string
}

func newLRUHarness(t *testing.T, capacity int) *lruHarness {
	h := &lruHarness{t: t, c: newLRU[int](capacity), m: &lruModel{capacity: capacity}}
	h.c.sizeOf = modelSize
	h.c.onReady = func(key string, v int) { h.readied = append(h.readied, fmt.Sprintf("%s=%d", key, v)) }
	h.c.onDrop = func(key string, v int) { h.dropped = append(h.dropped, fmt.Sprintf("%s=%d", key, v)) }
	return h
}

// check compares every observable of the cache against the model.
func (h *lruHarness) check(op string) {
	h.t.Helper()
	keys := []string{}
	for _, a := range h.c.snapshot() {
		keys = append(keys, a.key)
	}
	if want := h.m.completedKeys(); !reflect.DeepEqual(keys, want) {
		h.t.Fatalf("after %s: order %v, model %v", op, keys, want)
	}
	st := h.c.stats()
	if st.Hits != h.m.hits || st.Misses != h.m.misses || st.Evictions != h.m.evicted ||
		st.Bytes != h.m.bytes || st.Size != len(h.m.entries) {
		h.t.Fatalf("after %s: stats %+v, model hits=%d misses=%d evictions=%d bytes=%d size=%d",
			op, st, h.m.hits, h.m.misses, h.m.evicted, h.m.bytes, len(h.m.entries))
	}
	if !reflect.DeepEqual(h.readied, h.m.readied) && len(h.readied)+len(h.m.readied) > 0 {
		h.t.Fatalf("after %s: onReady calls %v, model %v", op, h.readied, h.m.readied)
	}
	if !reflect.DeepEqual(h.dropped, h.m.dropped) && len(h.dropped)+len(h.m.dropped) > 0 {
		h.t.Fatalf("after %s: onDrop calls %v, model %v", op, h.dropped, h.m.dropped)
	}
}

var errModelCompute = errors.New("compute failed")

// lruFlight is one compute held in flight by the test.
type lruFlight struct {
	key     string
	release chan error // nil = succeed with val
	val     int
	done    chan struct{}
	joiners int
	joined  chan error
}

// launch starts a getOrCompute on a key the model says is absent and
// returns once its entry is inserted and the compute is blocked.
func (h *lruHarness) launch(key string, val int) *lruFlight {
	h.t.Helper()
	f := &lruFlight{key: key, val: val, release: make(chan error), done: make(chan struct{}), joined: make(chan error, 64)}
	if h.m.begin(key) {
		h.t.Fatalf("launch %s: model says it is cached", key)
	}
	started := make(chan struct{})
	go func() {
		defer close(f.done)
		v, hit, err := h.c.getOrCompute(context.Background(), key, func() (int, error) {
			close(started)
			if err := <-f.release; err != nil {
				return 0, err
			}
			return val, nil
		})
		if hit || (err == nil && v != val) {
			f.joined <- fmt.Errorf("owner of %s: v=%d hit=%v err=%v", key, v, hit, err)
		}
	}()
	<-started
	return f
}

// join adds a waiter to the in-flight compute and returns once the cache
// has counted its hit (so the model and the cache agree again).
func (h *lruHarness) join(f *lruFlight) {
	h.t.Helper()
	before := h.c.hits.Load()
	if !h.m.begin(f.key) {
		h.t.Fatalf("join %s: model says it is absent", f.key)
	}
	f.joiners++
	go func() {
		v, hit, err := h.c.getOrCompute(context.Background(), f.key, func() (int, error) {
			return 0, errors.New("joiner ran the compute")
		})
		switch {
		case !hit:
			f.joined <- fmt.Errorf("joiner of %s was not a hit", f.key)
		case err != nil && !errors.Is(err, errModelCompute):
			f.joined <- err
		case err == nil && v != f.val:
			f.joined <- fmt.Errorf("joiner of %s got %d, want %d", f.key, v, f.val)
		default:
			f.joined <- nil
		}
	}()
	for h.c.hits.Load() == before {
		runtime.Gosched()
	}
}

// land completes the flight and checks every joiner shared its outcome.
func (h *lruHarness) land(f *lruFlight, fail bool) {
	h.t.Helper()
	var err error
	if fail {
		err = errModelCompute
	}
	f.release <- err
	<-f.done
	for i := 0; i < f.joiners; i++ {
		if jerr := <-f.joined; jerr != nil {
			h.t.Fatal(jerr)
		}
	}
	select {
	case oerr := <-f.joined:
		h.t.Fatal(oerr)
	default:
	}
	h.m.complete(f.key, f.val, fail)
}

// TestLRUAgainstModel drives the generic LRU with seeded random
// get/add/lookup/fail operations and held-open concurrent computes, and
// requires the same hit/miss/eviction sequence, LRU order, hook calls and
// byte accounting as the naive model after every step — including that an
// in-flight entry is never evicted and that emptying the cache returns
// its bytes to zero with exactly one drop per value that ever entered.
func TestLRUAgainstModel(t *testing.T) {
	for _, capacity := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + capacity)))
			h := newLRUHarness(t, capacity)
			ctx := context.Background()
			var flights []*lruFlight
			nextVal := 0
			key := func() string { return fmt.Sprintf("k%d", rng.Intn(2*capacity+3)) }
			inFlight := func(k string) bool {
				i := h.m.find(k)
				return i >= 0 && h.m.entries[i].inFlight
			}
			for step := 0; step < 4000; step++ {
				k := key()
				nextVal++
				op := fmt.Sprintf("step %d", step)
				switch r := rng.Intn(100); {
				case r < 35 && !inFlight(k): // get, computing on a miss
					wantHit := h.m.begin(k)
					v, hit, err := h.c.getOrCompute(ctx, k, func() (int, error) { return nextVal, nil })
					if err != nil || hit != wantHit {
						t.Fatalf("%s: get %s: hit=%v err=%v, model hit=%v", op, k, hit, err, wantHit)
					}
					if !wantHit {
						h.m.complete(k, nextVal, false)
					} else if want, _ := h.m.lookup(k, false); v != want {
						t.Fatalf("%s: get %s = %d, model %d", op, k, v, want)
					}
				case r < 45 && !inFlight(k): // get whose compute fails: never cached
					wantHit := h.m.begin(k)
					_, hit, err := h.c.getOrCompute(ctx, k, func() (int, error) { return 0, errModelCompute })
					if hit != wantHit || (err != nil) == wantHit {
						t.Fatalf("%s: failing get %s: hit=%v err=%v, model hit=%v", op, k, hit, err, wantHit)
					}
					if !wantHit {
						h.m.complete(k, 0, true)
					}
				case r < 60: // add (import)
					if got, want := h.c.add(k, nextVal), h.m.add(k, nextVal); got != want {
						t.Fatalf("%s: add %s = %v, model %v", op, k, got, want)
					}
				case r < 75: // lookup, touching or peeking
					touch := rng.Intn(2) == 0
					v, ok := h.c.lookup(k, touch)
					if wv, wok := h.m.lookup(k, touch); ok != wok || v != wv {
						t.Fatalf("%s: lookup %s = %d,%v, model %d,%v", op, k, v, ok, wv, wok)
					}
				case r < 85 && h.m.find(k) < 0 && len(flights) < capacity+1: // hold a compute open
					flights = append(flights, h.launch(k, nextVal))
				case r < 92 && len(flights) > 0: // concurrent join
					h.join(flights[rng.Intn(len(flights))])
				case len(flights) > 0: // land one, failing a third of them
					i := rng.Intn(len(flights))
					h.land(flights[i], rng.Intn(3) == 0)
					flights = append(flights[:i], flights[i+1:]...)
				}
				h.check(op)
				for _, f := range flights {
					if !h.c.contains(f.key) {
						t.Fatalf("%s: in-flight %s was evicted", op, f.key)
					}
				}
			}
			for _, f := range flights {
				h.land(f, false)
			}
			h.check("landing")

			// Empty the cache: hold `capacity` fresh computes open — every
			// completed entry must be evicted to make room — then fail them.
			flights = flights[:0]
			for i := 0; i < capacity; i++ {
				flights = append(flights, h.launch(fmt.Sprintf("flush%d", i), 0))
			}
			h.check("flush")
			for _, f := range flights {
				h.land(f, true)
			}
			h.check("emptying")
			if st := h.c.stats(); st.Size != 0 || st.Bytes != 0 {
				t.Fatalf("emptied cache still accounts %+v", st)
			}
			if len(h.dropped) != len(h.readied) {
				t.Fatalf("%d values entered the cache, %d drops", len(h.readied), len(h.dropped))
			}
		})
	}
}

// TestLRUWaiterContext pins that ctx bounds only the caller's own wait:
// a waiter whose context fires stops waiting with a hit and ctx.Err(),
// while the compute it joined completes for everyone else.
func TestLRUWaiterContext(t *testing.T) {
	h := newLRUHarness(t, 2)
	f := h.launch("slow", 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.m.begin("slow")
	_, hit, err := h.c.getOrCompute(ctx, "slow", func() (int, error) { return 0, errors.New("waiter ran the compute") })
	if !hit || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: hit=%v err=%v", hit, err)
	}
	h.land(f, false)
	h.check("landing")
	if v, ok := h.c.lookup("slow", false); !ok || v != 7 {
		t.Fatalf("compute abandoned by its waiter: %d, %v", v, ok)
	}
}
