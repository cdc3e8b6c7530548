package core

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"buffopt/internal/obs"
	"buffopt/internal/testutil"
)

// TestConcurrentSolveSharedState hammers Solve from many goroutines that
// share one buffer library and one obs registry (the service workload:
// nets differ, configuration does not), and checks the bookkeeping adds
// up: every attempt lands in the "solve.count" span counter and every
// success in exactly one "solve.answered.<tier>" counter. Run under
// -race (scripts/check.sh does), this is also the data-race gate for the
// core/guard/obs stack.
func TestConcurrentSolveSharedState(t *testing.T) {
	old := obs.Default()
	obs.SetDefault(obs.NewRegistry())
	defer obs.SetDefault(old)

	lib := lib2() // shared, read-only across workers
	const workers = 8
	perWorker := 4
	if testing.Short() {
		perWorker = 2
	}

	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				tr := testutil.RandomTree(rng, testutil.TreeOptions{
					MaxInternal: 8,
					MaxSinks:    6,
					BufferSites: true,
				})
				res, err := Solve(context.Background(), tr, lib, unitParams, Options{})
				if err != nil {
					// Some random nets are legitimately noise-unfixable;
					// what matters here is that failures are classified,
					// not silent.
					failed.Add(1)
					continue
				}
				if res.Result == nil || res.Tree == nil {
					t.Error("success with no solution")
				}
				ok.Add(1)
			}
		}(int64(w + 1))
	}
	wg.Wait()

	total := int64(workers * perWorker)
	if ok.Load()+failed.Load() != total {
		t.Fatalf("accounting hole: %d ok + %d failed != %d attempts", ok.Load(), failed.Load(), total)
	}
	snap := obs.Default().Snapshot()
	if got := snap.Counters["solve.count"]; got != total {
		t.Fatalf("solve.count = %d, want %d", got, total)
	}
	var answered int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "solve.answered.") {
			answered += v
		}
	}
	if answered != ok.Load() {
		t.Fatalf("sum(solve.answered.*) = %d, want %d successes", answered, ok.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no solve succeeded; the workload is degenerate")
	}
}

// TestConcurrentParallelSolves is the race gate on the parallel DP: many
// goroutines run worker-pool solves simultaneously (pool goroutines of
// different runs interleave in the shared sync.Pool arena), and the run
// must leave nothing behind — every pooled list returned, every worker
// goroutine gone.
func TestConcurrentParallelSolves(t *testing.T) {
	old := obs.Default()
	obs.SetDefault(obs.NewRegistry())
	defer obs.SetDefault(old)

	lib := lib2()
	baseline := runtime.NumGoroutine()
	const clients = 6
	perClient := 4
	if testing.Short() {
		perClient = 2
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perClient; i++ {
				tr := testutil.RandomTree(rng, testutil.TreeOptions{
					MaxInternal: 10,
					MaxSinks:    8,
					BufferSites: true,
				})
				// Workers forced past 1 so the pool path runs even on the
				// small trees (and on single-CPU hosts, where auto mode
				// would stay serial). Noise-unfixable nets may fail; what
				// the gate cares about is the cleanup below.
				res, err := Solve(context.Background(), tr, lib, unitParams, Options{dp: dpOverride{workers: 4}})
				if err == nil && (res.Result == nil || res.Tree == nil) {
					t.Error("success with no solution")
				}
			}
		}(int64(c + 100))
	}
	wg.Wait()

	// Zero pool leaks: across every run, serial or parallel, each list
	// taken from the arena came back exactly once.
	snap := obs.Default().Snapshot()
	taken, returned := snap.Counters["vg.pool.taken"], snap.Counters["vg.pool.returned"]
	if taken == 0 {
		t.Fatal("vg.pool.taken = 0; the arena went unexercised")
	}
	if taken != returned {
		t.Fatalf("pool leak: taken %d != returned %d", taken, returned)
	}
	if snap.Counters["vg.run.parallel"] == 0 {
		t.Fatal("no run took the parallel path; the gate tested nothing")
	}

	// The worker pools drained: goroutines return to baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d vs baseline %d after parallel solves", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
