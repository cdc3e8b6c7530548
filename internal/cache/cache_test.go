package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"buffopt/internal/guard"
	"buffopt/internal/obs"
)

// val is a pointer test value, so sharing is observable by identity.
type val struct {
	n    int
	blob []byte
}

func sizeVal(v *val) int64 { return int64(len(v.blob)) }

// checkBooks asserts the accounting equalities every cache must maintain.
func checkBooks(t *testing.T, c *Cache[*val]) {
	t.Helper()
	s := c.Stats()
	if s.Hits+s.Misses != s.Lookups {
		t.Errorf("hits %d + misses %d != lookups %d", s.Hits, s.Misses, s.Lookups)
	}
	if s.Coalesced > s.Misses {
		t.Errorf("coalesced %d > misses %d", s.Coalesced, s.Misses)
	}
	if s.Stored != s.Evicted+int64(s.Entries) {
		t.Errorf("stored %d != evicted %d + resident %d", s.Stored, s.Evicted, s.Entries)
	}
	if s.StoredBytes != s.EvictedBytes+s.Bytes {
		t.Errorf("storedBytes %d != evictedBytes %d + resident %d", s.StoredBytes, s.EvictedBytes, s.Bytes)
	}
}

func TestLRUEntryBound(t *testing.T) {
	c := New(Config[*val]{MaxEntries: 3})
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), &val{n: i})
	}
	if c.Len() != 3 {
		t.Fatalf("resident %d entries, want 3", c.Len())
	}
	// Oldest two evicted, newest three resident.
	for i, want := range []bool{false, false, true, true, true} {
		_, ok := c.Get(fmt.Sprintf("k%d", i))
		if ok != want {
			t.Errorf("k%d resident = %v, want %v", i, ok, want)
		}
	}
	// Touch k2 so it becomes most recent, then push one more: k3 goes.
	c.Get("k2")
	c.Put("k5", &val{n: 5})
	if _, ok := c.Get("k2"); !ok {
		t.Error("recently-used k2 was evicted")
	}
	if _, ok := c.Get("k3"); ok {
		t.Error("least-recently-used k3 survived")
	}
	checkBooks(t, c)
}

func TestByteBoundAndRejection(t *testing.T) {
	c := New(Config[*val]{MaxBytes: 100, Size: sizeVal})
	c.Put("a", &val{blob: make([]byte, 40)})
	c.Put("b", &val{blob: make([]byte, 40)})
	if got := c.Bytes(); got != 80 {
		t.Fatalf("resident bytes %d, want 80", got)
	}
	// 30 more bytes overflow the 100-byte budget; "a" (oldest) must go.
	c.Put("c", &val{blob: make([]byte, 30)})
	if _, ok := c.Get("a"); ok {
		t.Error("oldest entry survived byte-bound eviction")
	}
	if got := c.Bytes(); got != 70 {
		t.Errorf("resident bytes %d, want 70", got)
	}
	// A single value over the whole budget is rejected, not stored.
	c.Put("huge", &val{blob: make([]byte, 101)})
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized value was stored")
	}
	if s := c.Stats(); s.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", s.Rejected)
	}
	// Replacing a key swaps bytes without inflating residency.
	c.Put("b", &val{blob: make([]byte, 10)})
	if got := c.Bytes(); got != 40 {
		t.Errorf("resident bytes after replace %d, want 40", got)
	}
	checkBooks(t, c)
}

// TestReadsShareStoredValue: the cache copies nothing. Get, a Do hit,
// Peek and Entries all hand out the pointer that was stored, and a
// leader's fill return is the pointer the cache keeps.
func TestReadsShareStoredValue(t *testing.T) {
	c := New(Config[*val]{})
	orig := &val{n: 1, blob: []byte("abc")}
	c.Put("k", orig)
	if got, ok := c.Get("k"); !ok || got != orig {
		t.Errorf("Get = %p, %v; want the stored %p", got, ok, orig)
	}
	if got, out, err := c.Do(context.Background(), "k", func() (*val, bool, error) {
		t.Error("hit ran fill")
		return nil, false, nil
	}); err != nil || !out.Hit || got != orig {
		t.Errorf("Do hit = %p, %+v, %v; want the stored %p", got, out, err, orig)
	}
	if got, ok := c.Peek("k"); !ok || got != orig {
		t.Errorf("Peek = %p, %v; want the stored %p", got, ok, orig)
	}
	if es := c.Entries(); len(es) != 1 || es[0].Val != orig {
		t.Errorf("Entries = %+v; want one entry holding %p", es, orig)
	}

	filled := &val{n: 2}
	if got, _, err := c.Do(context.Background(), "f", func() (*val, bool, error) { return filled, true, nil }); err != nil || got != filled {
		t.Errorf("leader got %p, %v; want its own fill %p", got, err, filled)
	}
	if got, _ := c.Get("f"); got != filled {
		t.Errorf("stored fill = %p; want the leader's %p", got, filled)
	}
	checkBooks(t, c)
}

func TestDoHitMissAccounting(t *testing.T) {
	c := New(Config[*val]{})
	fills := 0
	fill := func() (*val, bool, error) { fills++; return &val{n: fills}, true, nil }
	v, out, err := c.Do(context.Background(), "k", fill)
	if err != nil || out.Hit || out.Coalesced || v.n != 1 {
		t.Fatalf("first Do: v=%+v out=%+v err=%v", v, out, err)
	}
	v, out, err = c.Do(context.Background(), "k", fill)
	if err != nil || !out.Hit || v.n != 1 {
		t.Fatalf("second Do: v=%+v out=%+v err=%v", v, out, err)
	}
	if fills != 1 {
		t.Errorf("fill ran %d times, want 1", fills)
	}
	s := c.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Misses != 1 || s.Coalesced != 0 {
		t.Errorf("stats %+v", s)
	}
	checkBooks(t, c)
}

func TestDoStoreFalse(t *testing.T) {
	c := New(Config[*val]{})
	fills := 0
	fill := func() (*val, bool, error) { fills++; return &val{n: 7}, false, nil }
	for i := 0; i < 2; i++ {
		v, out, err := c.Do(context.Background(), "k", fill)
		if err != nil || out.Hit || v.n != 7 {
			t.Fatalf("Do %d: v=%+v out=%+v err=%v", i, v, out, err)
		}
	}
	if fills != 2 {
		t.Errorf("store=false was cached anyway: %d fills", fills)
	}
	if c.Len() != 0 {
		t.Errorf("%d resident entries after store=false fills", c.Len())
	}
	checkBooks(t, c)
}

// waitMisses polls until n misses are recorded — i.e. n callers have
// passed the lookup and are leading or waiting — or fails the test.
func waitMisses(t *testing.T, c *Cache[*val], n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Misses < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers reached the cache", c.Stats().Misses, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCoalescing(t *testing.T) {
	const callers = 8
	c := New(Config[*val]{})
	var fills atomic.Int64
	release := make(chan struct{})
	fill := func() (*val, bool, error) {
		fills.Add(1)
		<-release
		return &val{n: 42, blob: []byte("payload")}, true, nil
	}

	var wg sync.WaitGroup
	results := make([]*val, callers)
	outs := make([]Outcome, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), "k", fill)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i], outs[i] = v, out
		}(i)
	}
	waitMisses(t, c, callers) // all callers in: one leads, rest wait
	close(release)
	wg.Wait()

	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times for %d concurrent callers", got, callers)
	}
	var coalesced int
	for i, v := range results {
		if v == nil || v.n != 42 || string(v.blob) != "payload" {
			t.Fatalf("caller %d got %+v", i, v)
		}
		if v != results[0] {
			t.Errorf("caller %d got %p, caller 0 %p: waiters must share the leader's value", i, v, results[0])
		}
		if outs[i].Coalesced {
			coalesced++
		}
	}
	if coalesced != callers-1 {
		t.Errorf("%d coalesced outcomes, want %d", coalesced, callers-1)
	}
	s := c.Stats()
	if s.Lookups != callers || s.Misses != callers || s.Hits != 0 || s.Coalesced != callers-1 {
		t.Errorf("stats %+v", s)
	}
	checkBooks(t, c)
}

func TestCoalescedWaitCancellation(t *testing.T) {
	c := New(Config[*val]{})
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), "k", func() (*val, bool, error) {
		<-release
		return &val{}, true, nil
	})
	waitMisses(t, c, 1)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() (*val, bool, error) {
			t.Error("canceled follower ran fill")
			return nil, false, nil
		})
		errc <- err
	}()
	waitMisses(t, c, 2)
	cancel()
	err := <-errc
	if !errors.Is(err, guard.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("follower cancellation error = %v; want guard.ErrCanceled and context.Canceled", err)
	}
}

func TestLeaderFailureFollowerRetries(t *testing.T) {
	const callers = 5
	c := New(Config[*val]{})
	var fills atomic.Int64
	release := make(chan struct{})
	sentinel := errors.New("boom")
	fill := func() (*val, bool, error) {
		if fills.Add(1) == 1 {
			<-release // hold until every follower is waiting
			return nil, false, sentinel
		}
		return &val{n: 9}, true, nil
	}

	var wg sync.WaitGroup
	var leaderErrs, okVals atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", fill)
			switch {
			case errors.Is(err, sentinel):
				leaderErrs.Add(1)
			case err == nil && v != nil && v.n == 9:
				okVals.Add(1)
			default:
				t.Errorf("unexpected result v=%+v err=%v", v, err)
			}
		}()
	}
	waitMisses(t, c, callers)
	close(release)
	wg.Wait()

	if leaderErrs.Load() != 1 {
		t.Errorf("%d callers saw the leader's error; only the leader should", leaderErrs.Load())
	}
	if okVals.Load() != callers-1 {
		t.Errorf("%d followers recovered, want %d", okVals.Load(), callers-1)
	}
	if got := fills.Load(); got != 2 {
		t.Errorf("fill ran %d times, want 2 (failed leader + one retry leader)", got)
	}
	checkBooks(t, c)
}

func TestLeaderPanicFailsFlightNotFollowers(t *testing.T) {
	const followers = 3
	c := New(Config[*val]{})
	var fills atomic.Int64
	release := make(chan struct{})
	fill := func() (*val, bool, error) {
		if fills.Add(1) == 1 {
			<-release
			panic("injected")
		}
		return &val{n: 5}, true, nil
	}

	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.Do(context.Background(), "k", fill)
	}()
	waitMisses(t, c, 1)

	var wg sync.WaitGroup
	var ok atomic.Int64
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", fill)
			if err == nil && v != nil && v.n == 5 {
				ok.Add(1)
			} else {
				t.Errorf("follower after leader panic: v=%+v err=%v", v, err)
			}
		}()
	}
	waitMisses(t, c, followers+1)
	close(release)
	wg.Wait()

	if r := <-leaderDone; r != "injected" {
		t.Errorf("leader panic = %v; must propagate to the leader's caller", r)
	}
	if ok.Load() != followers {
		t.Errorf("%d of %d followers recovered from the leader panic", ok.Load(), followers)
	}
	checkBooks(t, c)
}

func TestObsCounterNames(t *testing.T) {
	old := obs.Default()
	obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(old) })

	c := New(Config[*val]{MaxEntries: 1, Namespace: "server", Size: sizeVal})
	c.Put("a", &val{blob: []byte("xy")})
	c.Put("b", &val{blob: []byte("z")}) // evicts a
	c.Get("b")
	c.Get("missing")

	snap := obs.Default().Snapshot()
	want := map[string]int64{
		"server.cache.lookups": 2,
		"server.cache.hits":    1,
		"server.cache.misses":  1,
		"server.cache.stored":  2,
		"server.cache.evicted": 1,
	}
	for name, n := range want {
		if got := snap.Counters[name]; got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if got := snap.Gauges["server.cache.entries"]; got != 1 {
		t.Errorf("server.cache.entries = %d, want 1", got)
	}
	if got := snap.Gauges["server.cache.bytes"]; got != 1 {
		t.Errorf("server.cache.bytes = %d, want 1", got)
	}
}

func TestDoConcurrentDistinctKeys(t *testing.T) {
	c := New(Config[*val]{MaxEntries: 64})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%8)
			for j := 0; j < 20; j++ {
				v, _, err := c.Do(context.Background(), key, func() (*val, bool, error) {
					return &val{n: i % 8}, true, nil
				})
				if err != nil || v.n != i%8 {
					t.Errorf("key %s: v=%+v err=%v", key, v, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	checkBooks(t, c)
}

func TestPurge(t *testing.T) {
	c := New(Config[*val]{MaxEntries: 8})
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), &val{n: i, blob: []byte{1, 2}})
	}
	if n := c.Purge(); n != 5 {
		t.Errorf("Purge dropped %d entries, want 5", n)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("after Purge: %d entries, %d bytes resident", c.Len(), c.Bytes())
	}
	if _, ok := c.Get("k0"); ok {
		t.Error("purged entry still resident")
	}
	checkBooks(t, c)
	if n := c.Purge(); n != 0 {
		t.Errorf("second Purge dropped %d entries", n)
	}
	// A purged cache keeps working.
	c.Put("k9", &val{n: 9, blob: []byte{3}})
	if _, ok := c.Get("k9"); !ok {
		t.Error("post-purge Put not resident")
	}
	checkBooks(t, c)
}

// TestDroppedHook pins Config.Dropped: every value the cache lets go of —
// evicted by a bound, displaced by a Put on its key, purged — or refuses
// as too large is handed to the hook exactly once, and a resident value
// never is.
func TestDroppedHook(t *testing.T) {
	dropped := map[int]int{}
	c := New(Config[*val]{MaxEntries: 2, MaxBytes: 100, Size: sizeVal,
		Dropped: func(v *val) { dropped[v.n]++ }})
	c.Put("a", &val{n: 1, blob: make([]byte, 10)})
	c.Put("b", &val{n: 2, blob: make([]byte, 10)})
	c.Put("c", &val{n: 3, blob: make([]byte, 10)})  // evicts a
	c.Put("b", &val{n: 4, blob: make([]byte, 10)})  // displaces b
	c.Put("d", &val{n: 5, blob: make([]byte, 101)}) // refused
	if want := map[int]int{1: 1, 2: 1, 5: 1}; fmt.Sprint(dropped) != fmt.Sprint(want) {
		t.Fatalf("dropped %v, want %v", dropped, want)
	}
	c.Purge()
	if want := map[int]int{1: 1, 2: 1, 3: 1, 4: 1, 5: 1}; fmt.Sprint(dropped) != fmt.Sprint(want) {
		t.Fatalf("after Purge dropped %v, want %v", dropped, want)
	}
	checkBooks(t, c)
}
