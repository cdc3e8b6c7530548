package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"buffopt/internal/core"
	"buffopt/internal/faultinject"
	"buffopt/internal/guard"
	"buffopt/internal/obs"
)

// distinctNet derives a structurally distinct variant of sampleNet by
// perturbing one wire resistance — names are excluded from the canonical
// hash, so distinctness must come from the electricals.
func distinctNet(i int) string {
	return strings.Replace(sampleNet, "wire=240,6e-13,0.003",
		fmt.Sprintf("wire=%d,6e-13,0.003", 240+i), 1)
}

// normalize strips the per-request fields (timing, cache flags) so two
// responses can be compared for solver-output identity.
func normalize(t *testing.T, body []byte) string {
	t.Helper()
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	sr.ElapsedMS = 0
	sr.Cached = false
	sr.Coalesced = false
	for i := range sr.TierErrors {
		sr.TierErrors[i].ElapsedMS = 0
	}
	b, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func solveOK(t *testing.T, ts *httptest.Server, contentType, body string) (SolveResponse, []byte) {
	t.Helper()
	resp, b := postNet(t, ts, "/solve", contentType, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	var sr SolveResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, b)
	}
	return sr, b
}

// TestSolveCacheHTTP: with the cache enabled, a repeated request is
// answered from the cache with byte-identical solver output, the
// response says so, and the content addressing sees through renames.
func TestSolveCacheHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 16})

	first, b1 := solveOK(t, ts, "text/plain", sampleNet)
	if first.Cached {
		t.Fatal("first request claims cached")
	}
	second, b2 := solveOK(t, ts, "text/plain", sampleNet)
	if !second.Cached {
		t.Fatal("repeat request missed the cache")
	}
	if normalize(t, b1) != normalize(t, b2) {
		t.Fatalf("cached response differs from fresh:\nfresh  %s\ncached %s", b1, b2)
	}

	// The same net posted as a JSON envelope (identical knobs) is the
	// same content: it must hit the entry the raw post filled.
	env, _ := json.Marshal(map[string]any{"net": sampleNet})
	third, b3 := solveOK(t, ts, "application/json", string(env))
	if !third.Cached {
		t.Fatal("JSON post of the same net missed the cache")
	}
	if normalize(t, b1) != normalize(t, b3) {
		t.Fatal("JSON-path cached response differs from raw-path fresh response")
	}

	// Names are metadata, not content: a renamed copy of the net shares
	// the entry, while the response still echoes the request's name.
	renamed, _ := solveOK(t, ts, "text/plain", namedNet("alias"))
	if !renamed.Cached {
		t.Fatal("renamed identical net missed the cache; names must not be part of the key")
	}
	if renamed.Net != "alias" {
		t.Fatalf("cached response echoes %q, want the request's own name", renamed.Net)
	}

	st := s.cache.Stats()
	if st.Lookups != 4 || st.Hits != 3 || st.Misses != 1 {
		t.Errorf("stats %+v; want 4 lookups, 3 hits, 1 miss", st)
	}
	snap := obs.Default().Snapshot()
	if snap.Counters["server.cache.hits"] != 3 || snap.Counters["server.cache.lookups"] != 4 {
		t.Errorf("obs cache counters off: %+v", snap.Counters)
	}
	if snap.Gauges["server.cache.entries"] != 1 {
		t.Errorf("server.cache.entries = %d, want 1", snap.Gauges["server.cache.entries"])
	}

	// /metrics exposes the same counters to operators.
	resp, body := postNet(t, ts, "/metrics", "", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "server.cache.hits") {
		t.Errorf("/metrics missing server.cache.* counters: %s", body)
	}
}

// TestSolveCacheKeySeparation: knobs that steer the solver's output —
// candidate caps, segmenting, the objective — key separate entries.
func TestSolveCacheKeySeparation(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 16})

	variants := []struct {
		name, path, ct, body string
	}{
		{"default", "/solve", "text/plain", sampleNet},
		{"capped", "/solve?max_cands=2", "text/plain", sampleNet},
		{"segmented", "/solve", "application/json",
			`{"net":` + mustJSON(t, sampleNet) + `,"options":{"seglen":2.5e-4}}`},
		{"objective", "/solve", "application/json",
			`{"net":` + mustJSON(t, sampleNet) + `,"problem":{"objective":"max-slack"}}`},
	}
	for _, v := range variants {
		resp, b := postNet(t, ts, v.path, v.ct, v.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", v.name, resp.StatusCode, b)
		}
		var sr SolveResponse
		json.Unmarshal(b, &sr)
		if sr.Cached || sr.Coalesced {
			t.Fatalf("%s: first request of this shape hit another shape's entry", v.name)
		}
	}
	if got := s.cache.Len(); got != len(variants) {
		t.Fatalf("%d resident entries for %d distinct request shapes", got, len(variants))
	}
	// Each shape hits its own entry on repeat.
	for _, v := range variants {
		_, b := postNet(t, ts, v.path, v.ct, v.body)
		var sr SolveResponse
		json.Unmarshal(b, &sr)
		if !sr.Cached {
			t.Fatalf("%s: repeat missed its own entry", v.name)
		}
	}
}

func mustJSON(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSolveCacheCoalescingHTTP: concurrent identical requests under a
// forced-slow injector share solves. The cross-layer equality — injector
// plans consumed == cache misses that actually led a fill — proves hits
// and coalesced waiters never draw a chaos plan.
func TestSolveCacheCoalescingHTTP(t *testing.T) {
	const callers = 8
	inj, err := faultinject.New(faultinject.Config{
		Seed:      1,
		Rates:     map[faultinject.Fault]float64{faultinject.FaultSlow: 1.0},
		SlowDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{CacheEntries: 16, Injector: inj})

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
		flags  struct{ cached, coalesced, fresh int64 }
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/solve", "text/plain", strings.NewReader(sampleNet))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			var sr SolveResponse
			if err := json.Unmarshal(b, &sr); err != nil {
				t.Errorf("bad body: %v", err)
				return
			}
			mu.Lock()
			bodies = append(bodies, b)
			switch {
			case sr.Cached:
				flags.cached++
			case sr.Coalesced:
				flags.coalesced++
			default:
				flags.fresh++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	want := normalize(t, bodies[0])
	for i, b := range bodies {
		if normalize(t, b) != want {
			t.Errorf("response %d differs from the others", i)
		}
	}
	st := s.cache.Stats()
	if st.Lookups != callers || st.Hits+st.Misses != st.Lookups {
		t.Errorf("stats %+v", st)
	}
	if flags.cached != st.Hits || flags.coalesced != st.Coalesced {
		t.Errorf("client flags %+v disagree with cache stats %+v", flags, st)
	}
	// Every solve that actually ran drew exactly one plan; hits and
	// coalesced waiters drew none.
	fills := st.Misses - st.Coalesced
	if got := inj.Assigned(faultinject.FaultSlow); got != fills {
		t.Errorf("injector dealt %d plans, but only %d solves ran", got, fills)
	}
	if a, c := inj.Assigned(faultinject.FaultSlow), inj.Consumed(faultinject.FaultSlow); a != c {
		t.Errorf("slow: assigned %d != consumed %d", a, c)
	}
}

// TestEnvelopeVersioning walks the version and problem-sub-object decode
// rules of the envelope: v2 (or no "v") is the only shape, and the
// retired v1 flat shape — its version number, its top-level knobs — is a
// named 400.
func TestEnvelopeVersioning(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	net := mustJSON(t, sampleNet)

	cases := []struct {
		name   string
		body   string
		status int
		substr string
	}{
		{"explicit v1", `{"v":1,"net":` + net + `}`, http.StatusBadRequest, "unsupported envelope version 1"},
		{"v0 rejected", `{"v":0,"net":` + net + `}`, http.StatusBadRequest, "unsupported envelope version 0"},
		{"v2 accepted", `{"v":2,"net":` + net + `}`, http.StatusOK, ""},
		{"v3 rejected", `{"v":3,"net":` + net + `}`, http.StatusBadRequest, "unsupported envelope version 3"},
		{"v2 options knobs", `{"v":2,"net":` + net + `,"options":{"timeout_ms":2000,"lambda":0.6}}`, http.StatusOK, ""},
		{"v2 rejects top-level knob", `{"v":2,"net":` + net + `,"timeout_ms":2000}`, http.StatusBadRequest, `unknown field "timeout_ms"`},
		{"v2 rejects top-level lambda", `{"v":2,"net":` + net + `,"lambda":0.6}`, http.StatusBadRequest, `unknown field "lambda"`},
		{"implicit v2 rejects top-level knob", `{"net":` + net + `,"seglen":0}`, http.StatusBadRequest, `unknown field "seglen"`},
		{"v1 rejects options knob", `{"v":1,"net":` + net + `,"options":{"timeout_ms":2000}}`, http.StatusBadRequest, "unsupported envelope version 1"},
		{"v1 rejects top-level knob", `{"v":1,"net":` + net + `,"timeout_ms":2000}`, http.StatusBadRequest, "unsupported envelope version 1"},
		{"implicit v2 accepts options knob", `{"net":` + net + `,"options":{"seglen":2.5e-4}}`, http.StatusOK, ""},
		{"v1 rejects session", `{"v":1,"net":` + net + `,"session":{"id":"x"}}`, http.StatusBadRequest, "unsupported envelope version 1"},
		{"solve rejects session", `{"v":2,"net":` + net + `,"session":{"id":"x"}}`, http.StatusBadRequest, "/solve/delta"},
		{"solve rejects edits", `{"v":2,"net":` + net + `,"edits":[{"op":"set-cap","node":1,"value":1e-15}]}`, http.StatusBadRequest, "/solve/delta"},
		{"problem objective", `{"v":2,"net":` + net + `,"problem":{"objective":"max-slack-noise"}}`, http.StatusOK, ""},
		{"problem with k", `{"net":` + net + `,"problem":{"objective":"max-slack","k":3}}`, http.StatusOK, ""},
		{"unknown objective", `{"net":` + net + `,"problem":{"objective":"fastest"}}`, http.StatusBadRequest, "objective"},
		{"empty problem", `{"net":` + net + `,"problem":{}}`, http.StatusBadRequest, `missing "objective"`},
		{"negative k", `{"net":` + net + `,"problem":{"objective":"max-slack","k":-1}}`, http.StatusBadRequest, "negative"},
		{"k with min-buffers", `{"net":` + net + `,"problem":{"objective":"min-buffers-noise","k":2}}`, http.StatusBadRequest, "invalid with objective"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postNet(t, ts, "/solve", "application/json", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d; body %s", resp.StatusCode, tc.status, body)
			}
			if tc.status != http.StatusOK {
				var er ErrorResponse
				if err := json.Unmarshal(body, &er); err != nil {
					t.Fatalf("bad error body: %v", err)
				}
				if er.Class != "invalid" {
					t.Errorf("class = %q, want invalid", er.Class)
				}
				if !strings.Contains(er.Error, tc.substr) {
					t.Errorf("error %q does not mention %q", er.Error, tc.substr)
				}
			}
		})
	}

	// /solve/delta reads the same envelope: no "v" means v2 there too.
	if dr, _ := deltaOK(t, ts, `{"net":`+net+`}`); !dr.Created {
		t.Error("a v-less /solve/delta create did not create a session")
	}

	// The version rejection is typed, not just worded: callers embedding
	// the server can switch on it.
	s := New(Config{})
	for v, body := range map[int]string{
		3: `{"v":3,"net":` + net + `}`,
		1: `{"v":1,"net":` + net + `,"timeout_ms":900,"lambda":0.6}`,
	} {
		_, err := s.decodeJSON([]byte(body))
		var uve *UnsupportedVersionError
		if !errors.As(err, &uve) || uve.Version != v {
			t.Errorf("err = %v, want *UnsupportedVersionError{%d}", err, v)
		}
		if !errors.Is(err, guard.ErrInvalidInput) {
			t.Errorf("version rejection is not class invalid: %v", err)
		}
		if err != nil && !strings.Contains(err.Error(), "speaks v2") {
			t.Errorf("version rejection %q does not name v2", err)
		}
	}
}

// TestObjectiveEnvelope: the problem sub-object routes to core.Optimize;
// the min-buffers-noise objective answers exactly what the ladder's exact
// tier answers, and max-slack objectives report exact tier directly.
func TestObjectiveEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	net := mustJSON(t, sampleNet)

	ladder, _ := solveOK(t, ts, "text/plain", sampleNet)
	if ladder.Tier != "exact" {
		t.Fatalf("sample net did not solve exactly: tier %s", ladder.Tier)
	}
	min, _ := solveOK(t, ts, "application/json",
		`{"net":`+net+`,"problem":{"objective":"min-buffers-noise"}}`)
	if min.Tier != "exact" || min.Degraded {
		t.Fatalf("objective solve: tier %s degraded %v", min.Tier, min.Degraded)
	}
	if min.NumBuffers != ladder.NumBuffers || min.SlackPS != ladder.SlackPS {
		t.Errorf("min-buffers-noise objective (%d buffers, %.1f ps) disagrees with ladder exact tier (%d, %.1f)",
			min.NumBuffers, min.SlackPS, ladder.NumBuffers, ladder.SlackPS)
	}

	slack, _ := solveOK(t, ts, "application/json",
		`{"net":`+net+`,"problem":{"objective":"max-slack-noise"}}`)
	if slack.Tier != "exact" || slack.SlackPS < min.SlackPS {
		t.Errorf("max-slack-noise slack %.2f ps below min-buffers %.2f ps", slack.SlackPS, min.SlackPS)
	}
	bounded, _ := solveOK(t, ts, "application/json",
		`{"net":`+net+`,"problem":{"objective":"max-slack","k":2}}`)
	if bounded.NumBuffers > 2 {
		t.Errorf("k=2 bound violated: %d buffers", bounded.NumBuffers)
	}
}

// TestCacheSoakUnderChaos is the cache-enabled sibling of
// TestSoakUnderChaos: a 2-entry cache churns under a stream of distinct
// nets while the injector deals slow solves, cancels, panics, and
// corruptions. The books must balance across every layer at once:
// injector (assigned == consumed), cache (hits + misses == lookups,
// stored == evicted + resident), and telemetry (faults == fault-class
// counters, with cached/coalesced answers never double-counting).
func TestCacheSoakUnderChaos(t *testing.T) {
	clients, perClient := 12, 12
	if testing.Short() {
		clients, perClient = 6, 6
	}
	const workers, queueDepth = 4, 8
	const cacheEntries = 2
	const distinctNets = 6

	inj, err := faultinject.New(faultinject.Config{
		Seed: 43,
		Rates: map[faultinject.Fault]float64{
			faultinject.FaultSlow:      0.15,
			faultinject.FaultCancel:    0.10,
			faultinject.FaultPanic:     0.10,
			faultinject.FaultMalformed: 0.10,
		},
		SlowDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Workers:        workers,
		QueueDepth:     queueDepth,
		DefaultTimeout: 30 * time.Second,
		CacheEntries:   cacheEntries,
		Injector:       inj,
	})
	baseline := runtime.NumGoroutine()

	var (
		mu     sync.Mutex
		status = map[int]int{}
		total  = clients * perClient
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := distinctNet((c + i) % distinctNets)
				resp, err := http.Post(ts.URL+"/solve", "text/plain", strings.NewReader(body))
				if err != nil {
					t.Errorf("transport error (daemon died?): %v", err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var sr SolveResponse
					if err := json.Unmarshal(b, &sr); err != nil {
						t.Errorf("200 with undecodable body: %v", err)
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable,
					http.StatusInternalServerError:
					// Shed or injected panic: accounted below.
				default:
					t.Errorf("unexpected status %d: %s", resp.StatusCode, b)
				}
				mu.Lock()
				status[resp.StatusCode]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after soak: %v %v", hr, err)
	}
	hr.Body.Close()

	var answered int
	for _, n := range status {
		answered += n
	}
	if answered != total {
		t.Fatalf("answered %d of %d requests", answered, total)
	}

	// Injector books: every dealt plan was consumed — cached and
	// coalesced answers drew none, so nothing dangles.
	for _, f := range []faultinject.Fault{
		faultinject.FaultSlow, faultinject.FaultCancel,
		faultinject.FaultPanic, faultinject.FaultMalformed,
	} {
		if a, c := inj.Assigned(f), inj.Consumed(f); a != c {
			t.Errorf("%v: assigned %d != consumed %d", f, a, c)
		}
	}

	// Cache books.
	st := s.cache.Stats()
	t.Logf("status=%v cache=%+v", status, st)
	if st.Hits+st.Misses != st.Lookups {
		t.Errorf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, st.Lookups)
	}
	if st.Stored != st.Evicted+int64(st.Entries) {
		t.Errorf("stored %d != evicted %d + resident %d", st.Stored, st.Evicted, st.Entries)
	}
	if st.Entries > cacheEntries {
		t.Errorf("%d resident entries, bound is %d", st.Entries, cacheEntries)
	}
	if st.Hits == 0 {
		t.Error("soak never hit the cache; the cache path went unexercised")
	}
	if st.Evicted == 0 {
		t.Errorf("%d distinct nets through a %d-entry cache never evicted", distinctNets, cacheEntries)
	}

	snap := obs.Default().Snapshot()
	ctr := snap.Counters
	if ctr["server.cache.hits"] != st.Hits || ctr["server.cache.lookups"] != st.Lookups ||
		ctr["server.cache.evicted"] != st.Evicted {
		t.Errorf("obs cache counters disagree with Stats(): %+v vs %+v", ctr, st)
	}

	// Telemetry books: each consumed fault surfaces in exactly one
	// (non-cached, non-coalesced) response's counters.
	if got, want := ctr["server.request.outcome.panic"], inj.Consumed(faultinject.FaultPanic); got != want {
		t.Errorf("outcome.panic = %d, injected %d panics", got, want)
	}
	if got, want := ctr["server.request.tiererr.canceled"], inj.Consumed(faultinject.FaultCancel); got != want {
		t.Errorf("tiererr.canceled = %d, injected %d cancels", got, want)
	}
	if got, want := ctr["server.request.tiererr.internal"], inj.Consumed(faultinject.FaultMalformed); got != want {
		t.Errorf("tiererr.internal = %d, injected %d corruptions", got, want)
	}

	var outcomes int64
	for name, v := range ctr {
		if strings.HasPrefix(name, "server.request.outcome.") {
			outcomes += v
		}
	}
	shed := ctr["server.shed.queue_full"] + ctr["server.shed.draining"] + ctr["server.shed.client_gone"]
	if outcomes+shed != int64(total) {
		t.Errorf("outcomes %d + shed %d != %d requests", outcomes, shed, total)
	}
	if peak := snap.Gauges["server.inflight.peak"]; peak > workers {
		t.Errorf("inflight peak %d blew past %d workers", peak, workers)
	}

	http.DefaultClient.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+5 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines %d vs baseline %d after soak", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// onlyEntry returns s's one resident cache entry and its encoding.
func onlyEntry(t *testing.T, s *Server) (string, *core.SolveResult, []byte) {
	t.Helper()
	es := s.cache.Entries()
	if len(es) != 1 {
		t.Fatalf("%d resident entries, want 1", len(es))
	}
	data, err := core.EncodeSolveResult(es[0].Key, es[0].Val)
	if err != nil {
		t.Fatal(err)
	}
	return es[0].Key, es[0].Val, data
}

// checkStored fails the test unless the stored answer still encodes to
// want and carries no per-request flags.
func checkStored(t *testing.T, door, key string, stored *core.SolveResult, want []byte) {
	t.Helper()
	got, err := core.EncodeSolveResult(key, stored)
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

// TestCachedAnswerReadOnly: the server serves its one stored answer to
// every door without writing to it. After a hit, a peer's fill from this
// replica, the peer's own hit and a snapshot save, the stored answer
// encodes to the same bytes and carries no Cached/Coalesced stamp.
func TestCachedAnswerReadOnly(t *testing.T) {
	sA, tsA := newTestServer(t, Config{CacheEntries: 16})
	solveOK(t, tsA, "text/plain", sampleNet)
	key, stored, want := onlyEntry(t, sA)

	if hit, _ := solveOK(t, tsA, "text/plain", sampleNet); !hit.Cached {
		t.Fatal("repeat solve missed the cache")
	}
	checkStored(t, "hit", key, stored, want)

	sB, tsB := newTestServer(t, Config{
		CacheEntries: 16,
		Self:         "replica-b.test:1",
		Peers:        []string{hostPort(tsA.URL)},
	})
	solveOK(t, tsB, "text/plain", sampleNet)
	if got := obs.Default().Snapshot().Counters["fleet.peerfill.hits"]; got != 1 {
		t.Fatalf("peerfill.hits = %d, want 1", got)
	}
	checkStored(t, "peer fill (peek side)", key, stored, want)
	keyB, storedB, wantB := onlyEntry(t, sB)
	if keyB != key || !bytes.Equal(wantB, want) {
		t.Fatal("peer-filled entry differs from the peer's")
	}
	if hit, _ := solveOK(t, tsB, "text/plain", sampleNet); !hit.Cached {
		t.Fatal("peer-filled entry was not served as a hit")
	}
	checkStored(t, "peer-filled hit", keyB, storedB, wantB)

	if _, _, err := sA.cache.SaveSnapshot(filepath.Join(t.TempDir(), "snap"), core.EncodeSolveResult); err != nil {
		t.Fatal(err)
	}
	checkStored(t, "snapshot save", key, stored, want)
}

// TestBuildResponseSharedAnswer runs answerReply on one cached answer
// from 8 goroutines at once: under -race this proves the response path
// only reads the shared answer, and every response is the same.
func TestBuildResponseSharedAnswer(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 16})
	solveOK(t, ts, "text/plain", sampleNet)
	key, stored, want := onlyEntry(t, s)
	req, err := s.decodeSolve("text/plain", nil, []byte(sampleNet))
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	out := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := answerReply(req, stored)
			if err != nil {
				t.Error(err)
				return
			}
			b, err := json.Marshal(resp)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = b
		}(i)
	}
	wg.Wait()
	for i, b := range out {
		if !bytes.Equal(b, out[0]) {
			t.Fatalf("worker %d built a different response:\n%s\n%s", i, b, out[0])
		}
	}
	checkStored(t, "answerReply", key, stored, want)
}
