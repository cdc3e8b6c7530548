package core

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"buffopt/internal/buffers"
	"buffopt/internal/guard"
	"buffopt/internal/noise"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// cachedSolve runs Solve through c the way bufferd does: keyed by
// SolveCacheKey, stored only when Cacheable, with the lookup's outcome
// stamped on a copy of the result's header (the cache hands out its
// stored answer, which is read-only).
func cachedSolve(ctx context.Context, c *SolveCache, tr *rctree.Tree, lib *buffers.Library, p noise.Params, opts Options) (*SolveResult, error) {
	key := SolveCacheKey(Problem{Tree: tr, Library: lib, Params: p, Objective: MinBuffersNoise}, opts)
	res, out, err := c.Do(ctx, key, func() (*SolveResult, bool, error) {
		r, err := Solve(ctx, tr, lib, p, opts)
		if err != nil {
			return nil, false, err
		}
		return r, Cacheable(r), nil
	})
	if err != nil {
		return nil, err
	}
	r := *res
	r.Cached, r.Coalesced = out.Hit, out.Coalesced
	return &r, nil
}

// TestSolveCacheByteIdentity is the cache on/off identity gate: over the
// differential corpus, Solve with a cache produces byte-identical results
// to Solve without one — on the miss that fills the entry and again on
// the hit that reads it back — and the hit is flagged Cached with the
// same tier metadata.
func TestSolveCacheByteIdentity(t *testing.T) {
	n := diffCorpusSize
	if testing.Short() {
		n = 20
	}
	nets, lib, p := diffCorpus(t, n)
	c := NewSolveCache(0, 0, "test")

	for i, tr := range nets {
		plain, err := Solve(context.Background(), tr, lib, p, Options{})
		if err != nil {
			t.Fatalf("net %d uncached: %v", i, err)
		}
		miss, err := cachedSolve(context.Background(), c, tr, lib, p, Options{})
		if err != nil {
			t.Fatalf("net %d cache miss: %v", i, err)
		}
		hit, err := cachedSolve(context.Background(), c, tr, lib, p, Options{})
		if err != nil {
			t.Fatalf("net %d cache hit: %v", i, err)
		}
		pb, mb, hb := resultJSON(t, plain.Result), resultJSON(t, miss.Result), resultJSON(t, hit.Result)
		if string(pb) != string(mb) || string(mb) != string(hb) {
			t.Fatalf("net %d: cache-on vs cache-off results differ:\nplain %s\nmiss  %s\nhit   %s", i, pb, mb, hb)
		}
		if miss.Cached {
			t.Fatalf("net %d: first cached solve claims Cached", i)
		}
		if !hit.Cached {
			t.Fatalf("net %d: repeat solve did not hit the cache", i)
		}
		if hit.Tier != miss.Tier || hit.Degraded != miss.Degraded {
			t.Fatalf("net %d: tier metadata drifted on hit: %v/%v vs %v/%v",
				i, hit.Tier, hit.Degraded, miss.Tier, miss.Degraded)
		}
	}
	s := c.Stats()
	if s.Lookups != int64(2*len(nets)) || s.Hits != int64(len(nets)) || s.Misses != int64(len(nets)) {
		t.Errorf("stats %+v; want %d lookups, %d hits, %d misses", s, 2*len(nets), len(nets), len(nets))
	}
	if s.Hits+s.Misses != s.Lookups {
		t.Errorf("hits %d + misses %d != lookups %d", s.Hits, s.Misses, s.Lookups)
	}
}

// servedUnchanged fails the test unless the stored answer still encodes
// to want and carries no per-request flags: a door that served it wrote
// nothing to it.
func servedUnchanged(t *testing.T, door, key string, stored *SolveResult, want []byte) {
	t.Helper()
	got, err := EncodeSolveResult(key, stored)
	if err != nil {
		t.Fatalf("%s: %v", door, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed the stored answer's encoding", door)
	}
	if stored.Cached || stored.Coalesced {
		t.Fatalf("%s stamped the stored answer: cached=%v coalesced=%v", door, stored.Cached, stored.Coalesced)
	}
}

// TestSolveCacheHitSharesStored: the cache copies no answer. A hit
// returns the stored *SolveResult, and serving it through every cache
// door (hit, coalesced waiter, Peek, Entries via a snapshot save) leaves
// its encoding and flags as the solve left them.
func TestSolveCacheHitSharesStored(t *testing.T) {
	nets, lib, p := diffCorpus(t, 1)
	c := NewSolveCache(0, 0, "test")
	key := SolveCacheKey(Problem{Tree: nets[0], Library: lib, Params: p, Objective: MinBuffersNoise}, Options{})
	if _, err := cachedSolve(context.Background(), c, nets[0], lib, p, Options{}); err != nil {
		t.Fatal(err)
	}
	stored, ok := c.Peek(key)
	if !ok {
		t.Fatal("exact answer was not stored")
	}
	want, err := EncodeSolveResult(key, stored)
	if err != nil {
		t.Fatal(err)
	}
	servedUnchanged(t, "Peek", key, stored, want)

	hit, out, err := c.Do(context.Background(), key, func() (*SolveResult, bool, error) {
		t.Error("hit ran the fill")
		return nil, false, nil
	})
	if err != nil || !out.Hit || hit != stored {
		t.Fatalf("hit = %p (%+v, %v), want the stored %p", hit, out, err, stored)
	}
	stamped, err := cachedSolve(context.Background(), c, nets[0], lib, p, Options{})
	if err != nil || !stamped.Cached || stamped.Result != stored.Result {
		t.Fatalf("stamped hit: cached=%v, shares the stored Result=%v, err %v", stamped.Cached, stamped.Result == stored.Result, err)
	}
	servedUnchanged(t, "hit", key, stored, want)

	// Coalesced waiters: a second cache whose one fill hands out the
	// stored answer once every caller has joined the flight.
	const callers = 8
	c2 := NewSolveCache(0, 0, "test")
	fill := func() (*SolveResult, bool, error) {
		for c2.Stats().Misses < callers {
			time.Sleep(time.Millisecond)
		}
		return stored, true, nil
	}
	var wg sync.WaitGroup
	got := make([]*SolveResult, callers)
	var coalesced atomic.Int64
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, out, err := c2.Do(context.Background(), key, fill)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			if out.Coalesced {
				coalesced.Add(1)
			}
			got[i] = r
		}(i)
	}
	wg.Wait()
	for i, r := range got {
		if r != stored {
			t.Fatalf("caller %d got %p, want the shared %p", i, r, stored)
		}
	}
	if n := coalesced.Load(); n != callers-1 {
		t.Fatalf("%d callers coalesced, want %d", n, callers-1)
	}
	servedUnchanged(t, "coalesced waiters", key, stored, want)

	path := filepath.Join(t.TempDir(), "cache.snap")
	if saved, _, err := c.SaveSnapshot(path, EncodeSolveResult); err != nil || saved != 1 {
		t.Fatalf("snapshot save: %d saved, %v", saved, err)
	}
	servedUnchanged(t, "Entries", key, stored, want)
	if es := c.Entries(); len(es) != 1 || es[0].Val != stored {
		t.Fatal("Entries did not hand out the stored answer")
	}
}

// TestSolveCacheBudgetClassKeying: a budget-starved (deterministically
// degraded) answer caches under its own key, so it never masks the exact
// answer and vice versa.
func TestSolveCacheBudgetClassKeying(t *testing.T) {
	nets, lib, p := diffCorpus(t, 1)
	tr := nets[0]
	c := NewSolveCache(0, 0, "test")

	starved := guard.New(context.Background())
	starved.MaxCandidates = 2

	degraded, err := cachedSolve(context.Background(), c, tr, lib, p, Options{Budget: starved})
	if err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded {
		t.Fatal("MaxCandidates=2 did not degrade; the test premise is broken")
	}
	for _, te := range degraded.TierErrors {
		if guard.Class(te.Err) != "budget" {
			t.Fatalf("tier %v failed with class %q; expected deterministic budget trips only", te.Tier, guard.Class(te.Err))
		}
	}

	exact, err := cachedSolve(context.Background(), c, tr, lib, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cached {
		t.Fatal("uncapped solve hit the capped entry; budget classes must key separately")
	}
	if exact.Degraded {
		t.Fatal("uncapped solve degraded unexpectedly")
	}
	if c.Len() != 2 {
		t.Fatalf("%d resident entries; capped and uncapped must each have one", c.Len())
	}

	// Each class hits its own entry and reproduces its own bytes.
	starved2 := guard.New(context.Background())
	starved2.MaxCandidates = 2
	degraded2, err := cachedSolve(context.Background(), c, tr, lib, p, Options{Budget: starved2})
	if err != nil {
		t.Fatal(err)
	}
	if !degraded2.Cached || degraded2.Tier != degraded.Tier {
		t.Fatalf("capped repeat: cached=%v tier=%v, want hit with tier %v", degraded2.Cached, degraded2.Tier, degraded.Tier)
	}
	if string(resultJSON(t, degraded2.Result)) != string(resultJSON(t, degraded.Result)) {
		t.Fatal("capped repeat bytes differ from first capped solve")
	}
	exact2, err := cachedSolve(context.Background(), c, tr, lib, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !exact2.Cached || string(resultJSON(t, exact2.Result)) != string(resultJSON(t, exact.Result)) {
		t.Fatal("uncapped repeat did not reproduce the exact entry")
	}
}

// TestSolveCacheKeyIsSolvesProblem: Solve answers MinBuffersNoise with
// no count bound whatever Problem it is keyed from, so its key must not
// follow the caller's objective or bound — under MaxSlack the noise
// parameters Solve reads would drop out of the hash — while the noise
// parameters still move it.
func TestSolveCacheKeyIsSolvesProblem(t *testing.T) {
	nets, lib, p := diffCorpus(t, 1)
	k := 2
	want := SolveCacheKey(Problem{Tree: nets[0], Library: lib, Params: p, Objective: MinBuffersNoise}, Options{})
	for _, q := range []Problem{
		{Tree: nets[0], Library: lib, Params: p},
		{Tree: nets[0], Library: lib, Params: p, Objective: MaxSlackNoise, MaxBuffers: &k},
	} {
		if got := SolveCacheKey(q, Options{}); got != want {
			t.Fatalf("objective %v: Solve key %s, want %s", q.Objective, got, want)
		}
	}
	q := Problem{Tree: nets[0], Library: lib, Params: p}
	q.Params.Slope *= 2
	if SolveCacheKey(q, Options{}) == want {
		t.Fatal("the noise parameters do not move the Solve key")
	}
}

// TestSolveCacheDeadlineDegradedNotStored: a result degraded by
// wall-clock luck is served to its requester but never stored — the next
// identical request must get a fresh chance at the exact answer.
func TestSolveCacheDeadlineDegradedNotStored(t *testing.T) {
	nets, lib, p := diffCorpus(t, 1)
	c := NewSolveCache(0, 0, "test")

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := cachedSolve(ctx, c, nets[0], lib, p, Options{})
	if err != nil {
		t.Fatalf("expired-deadline solve must still answer (unbuffered tier): %v", err)
	}
	if res.Tier != TierUnbuffered {
		t.Fatalf("tier %v under expired deadline, want unbuffered", res.Tier)
	}
	if Cacheable(res) {
		t.Fatal("deadline-degraded result claims to be cacheable")
	}
	if c.Len() != 0 {
		t.Fatalf("%d entries stored from a deadline-degraded solve", c.Len())
	}

	// The next request, unhurried, gets the exact answer — not the
	// unbuffered leftovers.
	fresh, err := cachedSolve(context.Background(), c, nets[0], lib, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached || fresh.Degraded {
		t.Fatalf("fresh solve after deadline miss: cached=%v degraded=%v", fresh.Cached, fresh.Degraded)
	}
}

// TestSolveCacheCoalescing: concurrent identical Solve calls run the
// ladder once; everyone gets the same bytes; the accounting proves it.
func TestSolveCacheCoalescing(t *testing.T) {
	const callers = 8
	nets, lib, p := diffCorpus(t, 1)
	c := NewSolveCache(0, 0, "test")

	// Fresh registry so solve.answered.* counts only this test's ladder runs.
	old := obs.Default()
	obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(old) })

	var wg sync.WaitGroup
	results := make([]*SolveResult, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cachedSolve(context.Background(), c, nets[0], lib, p, Options{})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	var ladderRuns int64
	for name, v := range obs.Default().Snapshot().Counters {
		if strings.HasPrefix(name, "solve.answered.") {
			ladderRuns += v
		}
	}
	if ladderRuns != 1 {
		t.Errorf("ladder ran %d times for %d concurrent identical requests", ladderRuns, callers)
	}
	want := string(resultJSON(t, results[0].Result))
	for i, res := range results {
		if res == nil {
			t.Fatalf("caller %d got nothing", i)
		}
		if got := string(resultJSON(t, res.Result)); got != want {
			t.Fatalf("caller %d bytes differ from leader's", i)
		}
	}
	s := c.Stats()
	if s.Lookups != callers || s.Hits+s.Misses != s.Lookups {
		t.Errorf("stats %+v", s)
	}
	// Exactly one caller ran the ladder: every other miss coalesced.
	if s.Coalesced != s.Misses-1 {
		t.Errorf("coalesced %d, misses %d: more than one ladder run slipped through", s.Coalesced, s.Misses)
	}
}

// TestSolveCacheEvictionBounds: a one-entry cache under a stream of
// distinct nets keeps the books balanced while evicting.
func TestSolveCacheEvictionBounds(t *testing.T) {
	nets, lib, p := diffCorpus(t, 4)
	c := NewSolveCache(1, 0, "test")
	for pass := 0; pass < 2; pass++ {
		for i, tr := range nets {
			if _, err := cachedSolve(context.Background(), c, tr, lib, p, Options{}); err != nil {
				t.Fatalf("pass %d net %d: %v", pass, i, err)
			}
		}
	}
	s := c.Stats()
	if s.Entries != 1 {
		t.Errorf("%d resident entries, bound is 1", s.Entries)
	}
	if s.Stored != s.Evicted+int64(s.Entries) {
		t.Errorf("stored %d != evicted %d + resident %d", s.Stored, s.Evicted, s.Entries)
	}
	if s.Hits+s.Misses != s.Lookups {
		t.Errorf("hits %d + misses %d != lookups %d", s.Hits, s.Misses, s.Lookups)
	}
	// Every solve missed: the LRU churns through 4 distinct keys with
	// capacity 1, so nothing survives to be hit.
	if s.Hits != 0 || s.Misses != int64(2*len(nets)) {
		t.Errorf("hits %d misses %d; a 1-entry cache cannot hit on a 4-net round-robin", s.Hits, s.Misses)
	}
}
