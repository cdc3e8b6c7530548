// Package cache is a content-addressed, LRU-bounded result cache with
// request coalescing, built for the solver stack's deterministic front
// doors (core.Solve, core.Optimize, bufferd).
//
// The solver is deterministic — PR 4 made serial and parallel runs
// bit-identical — so a canonical hash of the request fully determines the
// response bytes, and caching is purely a performance win: a hit returns
// exactly what a fresh solve would have computed. The cache therefore
// stores values keyed by such canonical hashes (the caller derives them;
// see core.Problem.CanonicalHash) and enforces two independent bounds, an
// entry count and a resident byte budget, evicting least-recently-used
// entries when either is exceeded.
//
// Coalescing: N concurrent misses on the same key run the fill function
// once. The leader computes; followers block (honoring their own
// contexts) and share the leader's value. If the leader fails, each
// follower retries from the top — one of them becomes the new leader — so
// one caller's cancellation or injected fault never fails a bystander.
//
// Ownership discipline: a value is read-only once the cache has it. Put
// and a Filler return hand the value over; Get, Do, Peek and Entries hand
// out that same value to every reader, with no copy. Neither the caller
// that handed it in nor any reader may mutate it afterwards; a reader that
// wants to change something copies first.
//
// Accounting: every operation maintains the equalities the soak tests
// assert —
//
//	hits + misses == lookups
//	coalesced     <= misses   (a coalesced call is a miss that shared a leader)
//	stored        == evicted + resident entries
//	storedBytes   == evictedBytes + resident bytes
//
// and mirrors them into the obs registry under "<namespace>.cache.*"
// counters (plus ".entries"/".bytes" gauges), so /metrics and the
// snapshot files show cache behavior alongside the solver telemetry.
package cache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"buffopt/internal/guard"
	"buffopt/internal/obs"
)

// Config tunes one Cache.
type Config[V any] struct {
	// MaxEntries caps the number of resident entries; 0 means unlimited.
	MaxEntries int
	// MaxBytes caps the summed Size of resident entries; 0 means
	// unlimited. A single value larger than MaxBytes is rejected rather
	// than stored (it would evict the whole cache and then overflow it).
	MaxBytes int64
	// Size reports a value's approximate resident size in bytes. Nil
	// means every value counts as 1 byte (entry-count bounding only).
	Size func(V) int64
	// Namespace prefixes the obs metric names: namespace "server" yields
	// "server.cache.hits" and friends. Empty means "cache.hits".
	Namespace string
	// Dropped, when non-nil, is called under the cache's lock with every
	// value the cache lets go of — evicted by a bound, displaced by a Put
	// on its key, purged — or refuses as larger than MaxBytes, so an
	// owner can keep books on what stays resident.
	Dropped func(V)
}

// Stats is a consistent snapshot of the cache's own accounting, kept
// independently of the obs registry so tests can assert the equalities
// without a private registry.
type Stats struct {
	Lookups   int64 // Get + Do calls
	Hits      int64 // lookups answered from a resident entry
	Misses    int64 // lookups that found nothing (== Lookups - Hits)
	Coalesced int64 // misses that shared a concurrent leader's value
	Stored    int64 // entries ever inserted
	Evicted   int64 // entries removed by the LRU bounds
	Rejected  int64 // values refused outright (larger than MaxBytes)

	StoredBytes  int64 // bytes ever inserted
	EvictedBytes int64 // bytes removed by the LRU bounds

	Entries int   // resident entries now
	Bytes   int64 // resident bytes now
}

// Outcome reports how a Do call obtained its value.
type Outcome struct {
	// Hit: the value was resident when the call arrived.
	Hit bool
	// Coalesced: the call missed but shared a concurrent leader's value
	// instead of running its own fill.
	Coalesced bool
}

// ErrLeaderAborted is returned to coalesced waiters whose leader
// panicked out of its fill function; Do converts it into a retry, so
// callers only ever see it wrapped if every retry leader also aborts.
var ErrLeaderAborted = errors.New("cache: coalescing leader aborted")

// entry is one resident value.
type entry[V any] struct {
	key  string
	val  V
	size int64
}

// flight is one in-progress fill that followers may join.
type flight[V any] struct {
	done chan struct{} // closed when the leader finishes
	val  V             // leader's value, shared with every waiter
	err  error         // leader's error (or ErrLeaderAborted on panic)
}

// Cache is a content-addressed LRU with request coalescing. Create with
// New; all methods are safe for concurrent use.
type Cache[V any] struct {
	cfg Config[V]

	mu      sync.Mutex
	ll      *list.List // front = most recently used; elements hold *entry[V]
	byKey   map[string]*list.Element
	flights map[string]*flight[V]
	bytes   int64
	stats   Stats

	ns string      // metric name prefix, "<namespace>.cache."
	m  metricNames // the hot paths' names, prefixed once
}

// metricNames are a cache's obs metric names, "<namespace>.cache.<what>",
// built once in New so that counting allocates nothing.
type metricNames struct {
	lookups, hits, misses, coalesced, peeks   string
	stored, rejected, evicted, entries, bytes string
}

// New builds a Cache from cfg.
func New[V any](cfg Config[V]) *Cache[V] {
	ns := "cache."
	if cfg.Namespace != "" {
		ns = cfg.Namespace + ".cache."
	}
	return &Cache[V]{
		cfg:     cfg,
		ll:      list.New(),
		byKey:   make(map[string]*list.Element),
		flights: make(map[string]*flight[V]),
		ns:      ns,
		m: metricNames{
			lookups: ns + "lookups", hits: ns + "hits", misses: ns + "misses",
			coalesced: ns + "coalesced", peeks: ns + "peeks",
			stored: ns + "stored", rejected: ns + "rejected", evicted: ns + "evicted",
			entries: ns + "entries", bytes: ns + "bytes",
		},
	}
}

// size applies Config.Size (1 when nil).
func (c *Cache[V]) size(v V) int64 {
	if c.cfg.Size == nil {
		return 1
	}
	return c.cfg.Size(v)
}

// Get returns the value stored under key. It is the stored value
// itself, read-only like every value the cache hands out.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Lookups++
	obs.Inc(c.m.lookups)
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		obs.Inc(c.m.hits)
		return el.Value.(*entry[V]).val, true
	}
	c.stats.Misses++
	obs.Inc(c.m.misses)
	var zero V
	return zero, false
}

// Put stores v under key, taking ownership of v, and evicts LRU entries
// until the bounds hold again. A value larger than MaxBytes on its own is
// rejected (counted in Stats.Rejected). Re-putting an existing key
// replaces the value (the old one counts as evicted).
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, v)
}

func (c *Cache[V]) putLocked(key string, v V) {
	sz := c.size(v)
	if c.cfg.MaxBytes > 0 && sz > c.cfg.MaxBytes {
		c.stats.Rejected++
		obs.Inc(c.m.rejected)
		c.drop(v)
		return
	}
	if el, ok := c.byKey[key]; ok {
		// Replace in place; the displaced value is an eviction so the
		// stored == evicted + resident books stay balanced.
		old := el.Value.(*entry[V])
		c.bytes -= old.size
		c.stats.Evicted++
		c.stats.EvictedBytes += old.size
		obs.Inc(c.m.evicted)
		c.drop(old.val)
		old.val, old.size = v, sz
		c.bytes += sz
		c.ll.MoveToFront(el)
	} else {
		c.byKey[key] = c.ll.PushFront(&entry[V]{key: key, val: v, size: sz})
		c.bytes += sz
	}
	c.stats.Stored++
	c.stats.StoredBytes += sz
	obs.Inc(c.m.stored)
	for c.overLocked() {
		c.evictOldestLocked()
	}
	c.publishGaugesLocked()
}

func (c *Cache[V]) overLocked() bool {
	if c.cfg.MaxEntries > 0 && c.ll.Len() > c.cfg.MaxEntries {
		return true
	}
	return c.cfg.MaxBytes > 0 && c.bytes > c.cfg.MaxBytes
}

func (c *Cache[V]) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry[V])
	c.ll.Remove(el)
	delete(c.byKey, e.key)
	c.bytes -= e.size
	c.stats.Evicted++
	c.stats.EvictedBytes += e.size
	obs.Inc(c.m.evicted)
	c.drop(e.val)
}

// drop hands a value the cache lets go of to Config.Dropped.
func (c *Cache[V]) drop(v V) {
	if c.cfg.Dropped != nil {
		c.cfg.Dropped(v)
	}
}

func (c *Cache[V]) publishGaugesLocked() {
	obs.Set(c.m.entries, int64(c.ll.Len()))
	obs.Set(c.m.bytes, c.bytes)
}

// Filler computes a value on a miss. store reports whether the value may
// be cached (a deterministic result) or must only be shared with this
// flight's coalesced waiters (e.g. a result degraded by a wall-clock
// deadline, which a later identical request might better).
type Filler[V any] func() (v V, store bool, err error)

// Do returns the value for key, running fill at most once across all
// concurrent callers of the same key (request coalescing):
//
//   - resident key: the stored value is returned immediately
//     (Outcome.Hit);
//   - miss with no flight in progress: the caller leads, runs fill, and
//     returns its value, which the cache also stores when store is true;
//   - miss with a flight in progress: the caller waits for the leader —
//     honoring ctx — and returns the leader's value (Outcome.Coalesced).
//     If the leader failed, the caller retries from the top and may
//     become the new leader, so fill errors are never shared across
//     requests.
//
// Every caller of one key gets the same value, read-only.
//
// A fill that panics completes the flight with ErrLeaderAborted before
// the panic unwinds (waiters retry; the panic propagates to the leader's
// caller, which in this repository is always a guard.Safe boundary).
// Waiting canceled by ctx returns an error wrapping guard.ErrCanceled.
func (c *Cache[V]) Do(ctx context.Context, key string, fill Filler[V]) (V, Outcome, error) {
	var zero V
	first := true // lookup/hit/miss recorded at most once per call
	for {
		c.mu.Lock()
		if first {
			c.stats.Lookups++
			obs.Inc(c.m.lookups)
		}
		if el, ok := c.byKey[key]; ok {
			c.ll.MoveToFront(el)
			v := el.Value.(*entry[V]).val
			if first {
				c.stats.Hits++
				obs.Inc(c.m.hits)
				c.mu.Unlock()
				obs.Annotate(ctx, "cache", "hit")
				return v, Outcome{Hit: true}, nil
			}
			// Retrying waiter whose replacement leader stored the value
			// between wakeup and re-lock: it never ran fill, so the miss
			// it recorded on first check resolves as coalesced.
			c.stats.Coalesced++
			obs.Inc(c.m.coalesced)
			c.mu.Unlock()
			obs.Annotate(ctx, "cache", "coalesced")
			return v, Outcome{Coalesced: true}, nil
		}
		if first {
			c.stats.Misses++
			obs.Inc(c.m.misses)
			first = false
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				return zero, Outcome{}, fmt.Errorf("cache: coalesced wait for leader canceled: %w: %w",
					guard.ErrCanceled, ctx.Err())
			case <-f.done:
			}
			if f.err == nil {
				c.mu.Lock()
				c.stats.Coalesced++
				obs.Inc(c.m.coalesced)
				c.mu.Unlock()
				obs.Annotate(ctx, "cache", "coalesced")
				return f.val, Outcome{Coalesced: true}, nil
			}
			// Leader failed (or aborted): retry; this caller may lead.
			continue
		}
		// Lead the flight.
		f := &flight[V]{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		obs.Annotate(ctx, "cache", "miss")

		v, err := c.lead(key, f, fill)
		if err != nil {
			return zero, Outcome{}, err
		}
		return v, Outcome{}, nil
	}
}

// lead runs fill as the flight's leader and completes the flight exactly
// once, even when fill panics.
func (c *Cache[V]) lead(key string, f *flight[V], fill Filler[V]) (v V, err error) {
	completed := false
	defer func() {
		if !completed {
			// fill panicked: fail the flight so waiters retry, then let
			// the panic continue unwinding to the caller's guard.Safe.
			c.finishFlight(key, f, v, false, ErrLeaderAborted)
		}
	}()
	var store bool
	v, store, err = fill()
	completed = true
	c.finishFlight(key, f, v, store && err == nil, err)
	return v, err
}

// finishFlight publishes the leader's result to waiters and, when asked,
// installs it as the resident entry.
func (c *Cache[V]) finishFlight(key string, f *flight[V], v V, store bool, err error) {
	if err == nil {
		f.val = v
		c.mu.Lock()
		if store {
			c.putLocked(key, v)
		}
		delete(c.flights, key)
		c.mu.Unlock()
	} else {
		f.err = err
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
	}
	close(f.done)
}

// Peek returns the value stored under key, read-only, without touching
// the LRU order or the hit/miss books. The peer read-through layer uses
// it to answer sibling peeks: a remote replica's curiosity must neither
// keep an entry alive here nor skew the local hits+misses==lookups
// ledger. Counted under "<ns>.peeks".
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	obs.Inc(c.m.peeks)
	if el, ok := c.byKey[key]; ok {
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Entry is one (key, value) pair exported by Entries and restored by
// LoadSnapshot.
type Entry[V any] struct {
	Key string
	Val V
}

// Entries returns every resident entry, read-only, least recently used
// first, so replaying them through Put reconstructs both the contents and
// the recency order.
func (c *Cache[V]) Entries() []Entry[V] {
	c.mu.Lock()
	out := make([]Entry[V], 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry[V])
		out = append(out, Entry[V]{Key: e.key, Val: e.val})
	}
	c.mu.Unlock()
	return out
}

// Purge evicts every resident entry and returns how many were dropped.
// Each entry counts as an eviction, so the stored == evicted + resident
// books stay balanced — a purged cache looks exactly like one whose
// bounds evicted everything. In-progress flights are untouched: their
// leaders complete normally and may re-store. Session teardown uses this
// to retire a session's memo table under exact accounting.
func (c *Cache[V]) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	for c.ll.Len() > 0 {
		c.evictOldestLocked()
	}
	c.publishGaugesLocked()
	return n
}

// Stats returns a consistent snapshot of the accounting counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	return s
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the resident byte total.
func (c *Cache[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
