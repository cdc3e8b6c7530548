package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"buffopt/internal/obs"
	"buffopt/internal/server"
)

// labNet renders the i-th distinct test net. The nets differ in sink
// capacitance — an electrical property — because the affinity key hashes
// the canonical problem, which deliberately ignores names and
// coordinates; renaming a net would NOT make it a new key.
func labNet(i int) string {
	c := 1.0 + float64(i)*0.07
	return fmt.Sprintf(`net fleet%d
driver r=300 t=5e-11
node 0 source x=0 y=0
node 1 internal parent=0 wire=240,6e-13,0.003 x=0.003 y=0 bufok=1
node 2 sink parent=1 wire=160,4e-13,0.002 x=0.005 y=0 cap=%.6g rat=1.5e-9 nm=0.8 name=dff_a
node 3 internal parent=1 wire=80,2e-13,0.001 x=0.003 y=0.001 bufok=1
node 4 sink parent=3 wire=120,3e-13,0.0015 x=0.0045 y=0.001 cap=%.6g rat=1.5e-9 nm=0.8 name=dff_c
node 5 sink parent=3 wire=80,2e-13,0.001 x=0.003 y=0.002 cap=%.6g rat=1.5e-9 nm=0.8 name=dff_b aggr=0.5:7.2e9
end
`, i, 2.5e-14*c, 1.8e-14*c, 2.2e-14*c)
}

// freshObs swaps in a fresh metrics registry for one test.
func freshObs(t *testing.T) {
	t.Helper()
	old := obs.Default()
	obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(old) })
}

// startTestLab stands up a lab fleet and tears it down on cleanup.
func startTestLab(t *testing.T, cfg LabConfig) *Lab {
	t.Helper()
	lab, err := StartLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := lab.Close(); err != nil {
			t.Errorf("lab close: %v", err)
		}
	})
	return lab
}

func routerURL(lab *Lab) string { return "http://" + lab.Router.Addr() }

func postSolve(t *testing.T, base, net string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/solve", "text/plain", strings.NewReader(net))
	if err != nil {
		t.Fatalf("post /solve: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body
}

func TestRendezvousRankProperties(t *testing.T) {
	names := []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080", "10.0.0.4:8080"}
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("solve/v1/key-%d", i)
	}

	// Deterministic, and a permutation of the replica set: same rank on
	// every call, every replica appears exactly once.
	for _, k := range keys[:10] {
		a, b := server.RendezvousRank(k, names), server.RendezvousRank(k, names)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("rank not deterministic for %q: %v vs %v", k, a, b)
		}
		seen := map[int]bool{}
		for _, i := range a {
			seen[i] = true
		}
		if len(seen) != len(names) {
			t.Fatalf("rank %v is not a permutation of %d replicas", a, len(names))
		}
	}

	// The assignment depends on the set, not the listing order.
	shuffled := []string{names[2], names[0], names[3], names[1]}
	for _, k := range keys {
		a := names[server.RendezvousRank(k, names)[0]]
		b := shuffled[server.RendezvousRank(k, shuffled)[0]]
		if a != b {
			t.Fatalf("primary for %q depends on replica order: %s vs %s", k, a, b)
		}
	}

	// Every replica owns a non-trivial share of the keyspace.
	owned := map[string]int{}
	for _, k := range keys {
		owned[names[server.RendezvousRank(k, names)[0]]]++
	}
	for _, n := range names {
		if owned[n] < len(keys)/len(names)/3 {
			t.Errorf("replica %s owns only %d of %d keys; hash is badly skewed", n, owned[n], len(keys))
		}
	}

	// The HRW property: removing one replica moves only its keys, each
	// to its key's previous second choice; everyone else's keys stay.
	removed := names[1]
	survivors := []string{names[0], names[2], names[3]}
	for _, k := range keys {
		before := server.RendezvousRank(k, names)
		after := survivors[server.RendezvousRank(k, survivors)[0]]
		if names[before[0]] == removed {
			if want := names[before[1]]; after != want {
				t.Fatalf("key %q should fail over to its second choice %s, went to %s", k, want, after)
			}
		} else if after != names[before[0]] {
			t.Fatalf("key %q moved from %s to %s though its primary survived", k, names[before[0]], after)
		}
	}
}

// TestRouterAffinityAndForwarding: the healthy path — responses forward
// verbatim, and repeats of a problem land on the shard that cached it.
func TestRouterAffinityAndForwarding(t *testing.T) {
	freshObs(t)
	lab := startTestLab(t, LabConfig{
		Replicas: 3,
		Server:   server.Config{Workers: 2, QueueDepth: 8, CacheEntries: 64},
		Router:   Config{ProbeInterval: 50 * time.Millisecond},
	})
	base := routerURL(lab)

	// First post solves fresh; the repeat must hit the owning shard's
	// cache — that is the whole point of hash affinity.
	for round, wantCached := range []bool{false, true} {
		status, body := postSolve(t, base, labNet(0))
		if status != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, status, body)
		}
		var sr server.SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("round %d: undecodable body: %v", round, err)
		}
		if sr.Cached != wantCached {
			t.Fatalf("round %d: cached=%v, want %v", round, sr.Cached, wantCached)
		}
	}

	// A solver-side rejection forwards verbatim: 400 with the replica's
	// own error class, not a router-invented one.
	status, body := postSolve(t, base, "this is not a net\n")
	if status != http.StatusBadRequest {
		t.Fatalf("garbage net: status %d: %s", status, body)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Class != "invalid" {
		t.Fatalf("garbage net: class %q (err %v), want invalid", er.Class, err)
	}

	// Wrong method is rejected by the router itself.
	resp, err := http.Get(base + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve: status %d", resp.StatusCode)
	}

	// Router health surfaces.
	for _, path := range []string{"/healthz", "/readyz", "/fleet/status", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	snap := obs.Default().Snapshot()
	if got := snap.Counters["fleet.request.outcome.ok"]; got != 2 {
		t.Errorf("outcome.ok = %d, want 2", got)
	}
	if got := snap.Counters["fleet.request.outcome.error"]; got != 1 {
		t.Errorf("outcome.error = %d, want 1 (the forwarded 400)", got)
	}
}

// TestRouterFailoverOnKill: killing a replica mid-fleet loses no
// requests — connection errors fail over to each key's next replica,
// and the probes mark the corpse down.
func TestRouterFailoverOnKill(t *testing.T) {
	freshObs(t)
	lab := startTestLab(t, LabConfig{
		Replicas: 3,
		Server:   server.Config{Workers: 2, QueueDepth: 8},
		Router: Config{
			ProbeInterval:  25 * time.Millisecond,
			ProbeTimeout:   100 * time.Millisecond,
			FailThreshold:  2,
			AttemptTimeout: 5 * time.Second,
			HedgeMin:       50 * time.Millisecond,
		},
	})
	base := routerURL(lab)

	victim := lab.Replicas[0]
	victim.Kill()

	// Every key routes successfully, including the dead shard's.
	for i := 0; i < 12; i++ {
		if status, body := postSolve(t, base, labNet(i)); status != http.StatusOK {
			t.Fatalf("net %d after kill: status %d: %s", i, status, body)
		}
	}

	// The probes converge on the truth.
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get(base + "/fleet/status")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Replicas []ReplicaStatus `json:"replicas"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		state := ""
		for _, r := range st.Replicas {
			if r.Name == victim.Name {
				state = r.State
			}
		}
		if state == "down" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed replica never marked down (state %q)", state)
		}
		time.Sleep(20 * time.Millisecond)
	}

	snap := obs.Default().Snapshot()
	if snap.Counters["fleet.request.outcome.ok"] != 12 {
		t.Errorf("outcome.ok = %d, want 12", snap.Counters["fleet.request.outcome.ok"])
	}
	if snap.Counters["fleet.request.outcome.unroutable"] != 0 {
		t.Errorf("unroutable = %d, want 0", snap.Counters["fleet.request.outcome.unroutable"])
	}
}

// TestRouterHedgesPastPartition: a partition blackholes connections —
// they hang, not fail — so only the hedge timer saves the latency of
// requests whose primary is inside the partition.
func TestRouterHedgesPastPartition(t *testing.T) {
	freshObs(t)
	lab := startTestLab(t, LabConfig{
		Replicas: 3,
		Server:   server.Config{Workers: 2, QueueDepth: 8},
		Router: Config{
			// Probes effectively off: this test isolates the hedge path
			// (the probe path is TestRouterFailoverOnKill's job).
			ProbeInterval:  time.Hour,
			FailThreshold:  100,
			AttemptTimeout: 2 * time.Second,
			HedgeMin:       25 * time.Millisecond,
		},
	})
	base := routerURL(lab)

	// Find the net whose primary we are about to partition.
	rt := lab.Router
	victim := lab.Replicas[1]
	netIdx := -1
	for i := 0; i < 32 && netIdx < 0; i++ {
		key := rt.keyer.SolveKey("text/plain", url.Values{}, []byte(labNet(i)))
		if rt.names[server.RendezvousRank(key, rt.names)[0]] == victim.Name {
			netIdx = i
		}
	}
	if netIdx < 0 {
		t.Fatal("no test net hashes to the victim replica")
	}

	victim.Partition()
	start := time.Now()
	status, body := postSolve(t, base, labNet(netIdx))
	elapsed := time.Since(start)
	victim.Heal()
	if status != http.StatusOK {
		t.Fatalf("partitioned primary: status %d: %s", status, body)
	}
	// The answer must have come via the hedge, not the 2 s attempt
	// timeout on the blackholed connection.
	if elapsed > time.Second {
		t.Errorf("request took %v; hedge did not rescue it", elapsed)
	}
	snap := obs.Default().Snapshot()
	if snap.Counters["fleet.hedge.launched"] == 0 {
		t.Error("no hedge launched against a partitioned primary")
	}
	if snap.Counters["fleet.hedge.won"] == 0 {
		t.Error("hedge launched but never won against a blackholed primary")
	}
}

// TestRouterDrainMovesKeyspace: a draining replica keeps answering but
// its keyspace routes to each key's next replica.
func TestRouterDrainMovesKeyspace(t *testing.T) {
	freshObs(t)
	lab := startTestLab(t, LabConfig{
		Replicas: 2,
		Server:   server.Config{Workers: 2, QueueDepth: 8},
		Router:   Config{ProbeInterval: 20 * time.Millisecond, ProbeTimeout: 200 * time.Millisecond},
	})
	rt := lab.Router

	victim := lab.Replicas[0]
	victim.Drain()

	// The probe notices the drain...
	deadline := time.Now().Add(3 * time.Second)
	for {
		var rep *replica
		for _, r := range rt.replicas {
			if r.name == victim.Name {
				rep = r
			}
		}
		if rep.health() == draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained replica never marked draining (state %v)", rep.health())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// ...and every key now prefers the surviving replica, while requests
	// still succeed end to end.
	for i := 0; i < 8; i++ {
		key := rt.keyer.SolveKey("text/plain", url.Values{}, []byte(labNet(i)))
		if got := rt.rank(key)[0].name; got == victim.Name {
			t.Errorf("net %d still routes first to the draining replica", i)
		}
		if status, body := postSolve(t, routerURL(lab), labNet(i)); status != http.StatusOK {
			t.Fatalf("net %d during drain: status %d: %s", i, status, body)
		}
	}

	// The router itself stays ready: one replica is plenty.
	resp, err := http.Get(routerURL(lab) + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("router readyz %d with one healthy replica", resp.StatusCode)
	}
}

// TestBatchThroughRouter: a batch splits per shard and merges back in
// client order with per-item partial-failure semantics intact.
func TestBatchThroughRouter(t *testing.T) {
	freshObs(t)
	lab := startTestLab(t, LabConfig{
		Replicas: 3,
		Server:   server.Config{Workers: 2, QueueDepth: 8, CacheEntries: 64},
		Router:   Config{ProbeInterval: 50 * time.Millisecond},
	})
	base := routerURL(lab)

	// Three good nets and one whose net text is garbage: the garbage one
	// fails alone, exactly as it would against a single replica.
	nets := []string{labNet(0), labNet(1), "garbage", labNet(2)}
	var items []string
	for _, n := range nets {
		j, _ := json.Marshal(n)
		items = append(items, fmt.Sprintf(`{"net": %s}`, j))
	}
	body := fmt.Sprintf(`{"nets": [%s]}`, strings.Join(items, ", "))

	resp, err := http.Post(base+"/solve/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var br server.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("undecodable batch response: %v", err)
	}
	if br.Count != 4 || br.Succeeded != 3 || br.Failed != 1 {
		t.Fatalf("batch count=%d ok=%d failed=%d, want 4/3/1: %s", br.Count, br.Succeeded, br.Failed, raw)
	}
	for i, item := range br.Results {
		if item.Index != i {
			t.Errorf("result %d carries index %d; merge lost client ordering", i, item.Index)
		}
		if i == 2 {
			if item.Error == nil || item.Error.Class != "invalid" {
				t.Errorf("garbage item: error %+v, want class invalid", item.Error)
			}
		} else if item.Error != nil {
			t.Errorf("item %d failed: %+v", i, item.Error)
		}
	}

	// Re-post: every good item must now be a cache hit on its own shard,
	// proving a batch item and a standalone solve share one cache entry.
	resp2, err := http.Post(base+"/solve/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var br2 server.BatchResponse
	if err := json.Unmarshal(raw2, &br2); err != nil {
		t.Fatal(err)
	}
	for i, item := range br2.Results {
		if item.Result != nil && !item.Result.Cached {
			t.Errorf("repeat batch item %d missed the cache", i)
		}
	}

	// An unsplittable body is one replica's authoritative 400.
	resp3, err := http.Post(base+"/solve/batch", "application/json", strings.NewReader(`[1, 2]`))
	if err != nil {
		t.Fatal(err)
	}
	raw3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("unsplittable batch: status %d: %s", resp3.StatusCode, raw3)
	}
}

// TestRouterUnroutable: when every permitted replica refuses
// connections, the router's synthesized 503 carries Retry-After and the
// "unroutable" class — the one 5xx the router is allowed to own.
func TestRouterUnroutable(t *testing.T) {
	freshObs(t)
	// Two listeners grabbed and immediately closed: real addresses,
	// nothing listening.
	var deadAddrs []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(http.NotFoundHandler())
		deadAddrs = append(deadAddrs, strings.TrimPrefix(ts.URL, "http://"))
		ts.Close()
	}
	rt, err := New(Config{
		Replicas:      deadAddrs,
		FailThreshold: 2,
		RetryBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/solve", "text/plain", strings.NewReader(labNet(0)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("unroutable 503 missing Retry-After")
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Class != "unroutable" {
		t.Fatalf("class %q (err %v), want unroutable", er.Class, err)
	}
	rt.attemptWG.Wait()
	snap := obs.Default().Snapshot()
	if got := snap.Counters["fleet.attempt.connerr"]; got != 2 {
		t.Errorf("attempt.connerr = %d, want 2 (both replicas tried)", got)
	}
	if snap.Counters["fleet.attempt.launched"] != snap.Counters["fleet.attempt.settled"] {
		t.Errorf("attempt ledger off: launched %d, settled %d",
			snap.Counters["fleet.attempt.launched"], snap.Counters["fleet.attempt.settled"])
	}
}

// TestNewRejectsBadConfig covers the router's config validation.
func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty replica list")
	}
	if _, err := New(Config{Replicas: []string{"a:1", "a:1"}}); err == nil {
		t.Error("New accepted a duplicate replica")
	}
}
