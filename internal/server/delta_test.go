package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"buffopt/internal/faultinject"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// postDelta posts one JSON body to /solve/delta.
func postDelta(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	return postNet(t, ts, "/solve/delta", "application/json", body)
}

// deltaOK posts to /solve/delta and requires a 200 with a well-formed
// ledger (reused + resolved == lookups, the per-response invariant).
func deltaOK(t *testing.T, ts *httptest.Server, body string) (DeltaResponse, []byte) {
	t.Helper()
	resp, b := postDelta(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status = %d, body %s", resp.StatusCode, b)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(b, &dr); err != nil {
		t.Fatalf("bad delta JSON: %v\n%s", err, b)
	}
	if dr.Reused+dr.Resolved != dr.Lookups {
		t.Fatalf("ledger open: reused %d + resolved %d != lookups %d", dr.Reused, dr.Resolved, dr.Lookups)
	}
	if dr.SessionID == "" {
		t.Fatalf("delta response missing session_id: %s", b)
	}
	return dr, b
}

// createBody is a v2 create envelope for net text under the server's
// default options. Segmentation appends its new nodes after the
// originals, so the netfmt file's node IDs survive into the session's
// worked tree and the tests can address sinks by their file IDs.
func createBody(t *testing.T, net, problem string) string {
	t.Helper()
	b := fmt.Sprintf(`{"v": 2, "net": %s`, mustJSON(t, net))
	if problem != "" {
		b += `, "problem": ` + problem
	}
	return b + `}`
}

// fakeClock is a mutex-guarded injectable clock for the sessionStore, so
// TTL expiry can be tested without sleeping (and without racing the
// handler goroutines that read it).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestDeltaBitIdentity: a created session's answer, and every re-solve
// after an edit stream, is byte-identical to POSTing the equivalently
// edited net at /solve with the same objective — the ECO engine changes
// how the answer is computed, never what it is. Also pins the ledger
// shape: a create resolves everything, an edit reuses untouched
// subtrees, a no-edit re-solve is one root-level memo hit.
func TestDeltaBitIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Create: the default objective is min-buffers-noise (the paper's
	// tool configuration), so /solve with that problem is the oracle.
	cr, cb := deltaOK(t, ts, createBody(t, sampleNet, ""))
	if !cr.Created {
		t.Fatalf("create response not marked created: %s", cb)
	}
	if cr.Reused != 0 || cr.Resolved == 0 {
		t.Fatalf("cold create should resolve everything: reused %d resolved %d", cr.Reused, cr.Resolved)
	}
	if cr.Nodes < 6 {
		t.Fatalf("session nodes = %d, want at least the net's 6 (segmentation only appends)", cr.Nodes)
	}
	_, sb := solveOK(t, ts, "application/json",
		createBody(t, sampleNet, `{"objective": "min-buffers-noise"}`))
	if normalize(t, cb) != normalize(t, sb) {
		t.Fatalf("create answer differs from /solve:\ndelta %s\nsolve %s", cb, sb)
	}

	// Edit a sink cap and re-solve; the oracle is /solve on the edited
	// net text.
	edited := strings.Replace(sampleNet, "cap=2.5e-14", "cap=4.1e-14", 1)
	if edited == sampleNet {
		t.Fatal("edit substitution failed")
	}
	er, eb := deltaOK(t, ts, fmt.Sprintf(
		`{"v": 2, "session": {"id": %q}, "edits": [{"op": "set-cap", "node": 2, "value": 4.1e-14}]}`,
		cr.SessionID))
	if er.Created {
		t.Fatal("edit response claims it created the session")
	}
	if er.EditsApplied != 1 {
		t.Fatalf("edits_applied = %d, want 1", er.EditsApplied)
	}
	if er.Reused == 0 {
		t.Fatal("single-sink edit reused nothing; the memo is not engaging")
	}
	_, sb2 := solveOK(t, ts, "application/json",
		createBody(t, edited, `{"objective": "min-buffers-noise"}`))
	if normalize(t, eb) != normalize(t, sb2) {
		t.Fatalf("edited answer differs from /solve of the edited net:\ndelta %s\nsolve %s", eb, sb2)
	}

	// No-edit re-solve: one lookup, one hit, nothing recomputed.
	nr, _ := deltaOK(t, ts, fmt.Sprintf(`{"v": 2, "session": {"id": %q}}`, cr.SessionID))
	if nr.Lookups != 1 || nr.Reused != 1 || nr.Resolved != 0 {
		t.Fatalf("no-edit ledger = %d/%d/%d (reused/resolved/lookups), want 1/0/1",
			nr.Reused, nr.Resolved, nr.Lookups)
	}
}

// TestDeltaNodesTracksTree: a response's "nodes" is the session's worked
// tree length after its edits, through a graft that grows the tree and a
// prune that shrinks it back.
func TestDeltaNodesTracksTree(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cr, _ := deltaOK(t, ts, createBody(t, sampleNet, ""))
	ss, err := s.sessions.get(cr.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	tr := ss.sess.Tree()
	if cr.Nodes != tr.Len() {
		t.Fatalf("create: nodes = %d, session tree has %d", cr.Nodes, tr.Len())
	}
	// Graft below the first non-root node with one child: the binary
	// form has room there.
	parent := -1
	for v := 1; v < tr.Len() && parent < 0; v++ {
		if len(tr.Node(rctree.NodeID(v)).Children) == 1 {
			parent = v
		}
	}
	if parent < 0 {
		t.Fatal("worked tree has no one-child node to graft below")
	}
	const sub = "net sub\ndriver r=0 t=0\nnode 0 source x=0 y=0\n" +
		"node 1 sink parent=0 wire=100,2e-13,0.001 x=0 y=0 cap=1e-14 rat=1.5e-9 nm=0.8 name=g\nend\n"
	gr, gb := deltaOK(t, ts, fmt.Sprintf(
		`{"v": 2, "session": {"id": %q}, "edits": [{"op": "graft", "node": %d, "sub": %s, "wire": {"r": 50, "c": 1e-13, "length": 5e-4}}]}`,
		cr.SessionID, parent, mustJSON(t, sub)))
	if want := ss.sess.Tree().Len(); gr.Nodes != want || gr.Nodes != cr.Nodes+2 {
		t.Fatalf("graft: nodes = %d, session tree has %d, created with %d: %s", gr.Nodes, want, cr.Nodes, gb)
	}
	// The graft's source took the first new ID; pruning it undoes the
	// graft.
	pr, pb := deltaOK(t, ts, fmt.Sprintf(
		`{"v": 2, "session": {"id": %q}, "edits": [{"op": "prune", "node": %d}]}`, cr.SessionID, cr.Nodes))
	if want := ss.sess.Tree().Len(); pr.Nodes != want || pr.Nodes != cr.Nodes {
		t.Fatalf("prune: nodes = %d, session tree has %d, created with %d: %s", pr.Nodes, want, cr.Nodes, pb)
	}
}

// TestDeltaExplicitObjective: a create carrying a "problem" pins that
// objective (and k) for the session's lifetime, matching /solve.
func TestDeltaExplicitObjective(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cr, cb := deltaOK(t, ts, createBody(t, sampleNet, `{"objective": "max-slack", "k": 2}`))
	_, sb := solveOK(t, ts, "application/json",
		createBody(t, sampleNet, `{"objective": "max-slack", "k": 2}`))
	if normalize(t, cb) != normalize(t, sb) {
		t.Fatalf("max-slack k=2 delta differs from /solve:\ndelta %s\nsolve %s", cb, sb)
	}
	er, eb := deltaOK(t, ts, fmt.Sprintf(
		`{"v": 2, "session": {"id": %q}, "edits": [{"op": "set-rat", "node": 4, "value": 1.2e-9}]}`,
		cr.SessionID))
	if er.Reused == 0 {
		t.Fatal("RAT edit reused nothing")
	}
	edited := strings.Replace(sampleNet,
		"node 4 sink parent=3 wire=120,3e-13,0.0015 x=0.0045 y=0.001 cap=1.8e-14 rat=1.5e-9",
		"node 4 sink parent=3 wire=120,3e-13,0.0015 x=0.0045 y=0.001 cap=1.8e-14 rat=1.2e-9", 1)
	if edited == sampleNet {
		t.Fatal("edit substitution failed")
	}
	_, sb2 := solveOK(t, ts, "application/json",
		createBody(t, edited, `{"objective": "max-slack", "k": 2}`))
	if normalize(t, eb) != normalize(t, sb2) {
		t.Fatalf("edited max-slack answer differs from /solve:\ndelta %s\nsolve %s", eb, sb2)
	}
}

// TestDeltaSessionExpiry: TTL expiry mid-edit-stream. The expired
// session answers 404 with class "invalid" — never a silent full solve
// under the stale ledger — and the store's books record the expiry.
func TestDeltaSessionExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{SessionTTL: time.Minute})
	clk := &fakeClock{t: time.Now()}
	s.sessions.now = clk.Now

	cr, _ := deltaOK(t, ts, createBody(t, sampleNet, ""))
	editBody := fmt.Sprintf(
		`{"v": 2, "session": {"id": %q}, "edits": [{"op": "set-cap", "node": 2, "value": 3e-14}]}`,
		cr.SessionID)

	// Mid-stream: the first edit lands (and refreshes the TTL)...
	clk.Advance(30 * time.Second)
	deltaOK(t, ts, editBody)

	// ...then the client goes idle past the TTL and the next edit 404s.
	clk.Advance(2 * time.Minute)
	resp, b := postDelta(t, ts, editBody)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session status = %d, want 404; body %s", resp.StatusCode, b)
	}
	var er ErrorResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("bad error JSON: %v\n%s", err, b)
	}
	if er.Class != "invalid" || !strings.Contains(er.Error, "session") {
		t.Fatalf("expired session error = %+v, want class invalid naming the session", er)
	}

	snap := obs.Default().Snapshot()
	if got := snap.Counters["server.delta.sessions.expired"]; got != 1 {
		t.Fatalf("sessions.expired = %d, want 1", got)
	}
	if got := snap.Counters["server.delta.sessions.missing"]; got != 1 {
		t.Fatalf("sessions.missing = %d, want 1", got)
	}
	if got := snap.Gauges["server.delta.sessions.active"]; got != 0 {
		t.Fatalf("sessions.active = %d, want 0", got)
	}
	// The refused request ran no solve: exactly the two successful posts
	// above produced ok outcomes, and the refusal shows as invalid.
	if got := snap.Counters["server.delta.outcome.ok"]; got != 2 {
		t.Fatalf("outcome.ok = %d, want 2 (the 404 must not have solved)", got)
	}
	if s.sessions.len() != 0 {
		t.Fatalf("store still holds %d sessions", s.sessions.len())
	}
}

// TestDeltaUnknownSession: a never-issued id is a 404, class "invalid".
func TestDeltaUnknownSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postDelta(t, ts, `{"v": 2, "session": {"id": "deadbeefdeadbeefdeadbeefdeadbeef"}}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status = %d, want 404; body %s", resp.StatusCode, b)
	}
	var er ErrorResponse
	json.Unmarshal(b, &er)
	if er.Class != "invalid" {
		t.Fatalf("unknown session class = %q, want invalid", er.Class)
	}
}

// TestDeltaMaxSessionsEviction: creating past MaxSessions evicts the
// least-recently-used session, which then 404s like any dead id.
func TestDeltaMaxSessionsEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 2})

	a, _ := deltaOK(t, ts, createBody(t, namedNet("eco-a"), ""))
	b, _ := deltaOK(t, ts, createBody(t, namedNet("eco-b"), ""))
	// Touch A so B becomes the LRU victim.
	deltaOK(t, ts, fmt.Sprintf(`{"v": 2, "session": {"id": %q}}`, a.SessionID))
	c, _ := deltaOK(t, ts, createBody(t, namedNet("eco-c"), ""))

	resp, body := postDelta(t, ts, fmt.Sprintf(`{"v": 2, "session": {"id": %q}}`, b.SessionID))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session status = %d, want 404; body %s", resp.StatusCode, body)
	}
	for _, id := range []string{a.SessionID, c.SessionID} {
		deltaOK(t, ts, fmt.Sprintf(`{"v": 2, "session": {"id": %q}}`, id))
	}

	snap := obs.Default().Snapshot()
	created := snap.Counters["server.delta.sessions.created"]
	evicted := snap.Counters["server.delta.sessions.evicted"]
	active := snap.Gauges["server.delta.sessions.active"]
	if created != 3 || evicted != 1 || active != 2 {
		t.Fatalf("session books: created %d evicted %d active %d, want 3/1/2", created, evicted, active)
	}
	if s.sessions.len() != 2 {
		t.Fatalf("store holds %d sessions, want 2", s.sessions.len())
	}
}

// TestDeltaMemoByteBudget: a session whose memo byte budget cannot hold
// the whole tree keeps answering bit-identically — eviction costs reuse,
// never correctness — and the evictions are visible under the session
// cache namespace.
func TestDeltaMemoByteBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{SessionMemoBytes: 2048})
	cr, _ := deltaOK(t, ts, createBody(t, sampleNet, ""))

	edited := strings.Replace(sampleNet, "cap=2.2e-14", "cap=5e-14", 1)
	if edited == sampleNet {
		t.Fatal("edit substitution failed")
	}
	_, eb := deltaOK(t, ts, fmt.Sprintf(
		`{"v": 2, "session": {"id": %q}, "edits": [{"op": "set-cap", "node": 5, "value": 5e-14}]}`,
		cr.SessionID))
	_, sb := solveOK(t, ts, "application/json",
		createBody(t, edited, `{"objective": "min-buffers-noise"}`))
	if normalize(t, eb) != normalize(t, sb) {
		t.Fatalf("starved-memo answer differs from /solve:\ndelta %s\nsolve %s", eb, sb)
	}

	snap := obs.Default().Snapshot()
	if snap.Counters["server.delta.memo.cache.evicted"] == 0 {
		t.Fatal("tiny memo byte budget never evicted; the bound is not enforced")
	}
}

// TestDeltaSessionKeepsItsKnobs: the timeout_ms/max_cands a create sets
// are the session's own, so a later delta that names no knob runs under
// them rather than the server's defaults, and a delta that names one
// overrides it for that call only. The sample net's lists peak at 164
// candidates; the edits below grow one to 194, past the session's cap of
// 170 but well inside the server's 10000.
func TestDeltaSessionKeepsItsKnobs(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCands: 10000})
	created, _ := deltaOK(t, ts, fmt.Sprintf(`{"v": 2, "net": %s, "options": {"timeout_ms": 1000, "max_cands": 170}}`,
		mustJSON(t, sampleNet)))

	edit := `"edits": [{"op": "set-rat", "node": 2, "value": 3e-9}, {"op": "set-cap", "node": 2, "value": 9e-13}]`
	resp, b := postDelta(t, ts, fmt.Sprintf(`{"v": 2, "session": {"id": %q}, %s}`, created.SessionID, edit))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("knob-less delta status = %d, want 503 under the session's cap; body %s", resp.StatusCode, b)
	}
	var er ErrorResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatal(err)
	}
	if er.Class != "budget" || !strings.Contains(er.Error, "(cap 170)") {
		t.Fatalf("knob-less delta error = %+v, want class budget under cap 170", er)
	}

	// Naming a cap overrides the session's for this call; the edit above
	// already landed, so this re-solves the edited tree.
	deltaOK(t, ts, fmt.Sprintf(`{"v": 2, "session": {"id": %q}, "options": {"max_cands": 10000}}`, created.SessionID))
}

// TestDeltaRejections pins the decode surface: wrong method, wrong
// content type, version discipline, the session-XOR-net rule, and every
// malformed edit shape answer 4xx with a named reason — and the
// rejections are visible as decode counters.
func TestDeltaRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sessionOnly := `{"v": 2, "session": {"id": "ab"}}`

	cases := []struct {
		name    string
		body    string
		status  int
		wantMsg string
	}{
		{"explicit v1", fmt.Sprintf(`{"v": 1, "net": %s}`, mustJSON(t, sampleNet)),
			http.StatusBadRequest, "unsupported envelope version 1"},
		{"unknown version", `{"v": 3, "net": "x"}`,
			http.StatusBadRequest, "unsupported envelope version 3"},
		{"neither session nor net", `{"v": 2}`,
			http.StatusBadRequest, `"session" id or a "net"`},
		{"both session and net", fmt.Sprintf(`{"v": 2, "net": %s, "session": {"id": "ab"}}`, mustJSON(t, sampleNet)),
			http.StatusBadRequest, `"session" or "net", not both`},
		{"v2 top-level knob", fmt.Sprintf(`{"v": 2, "net": %s, "timeout_ms": 50}`, mustJSON(t, sampleNet)),
			http.StatusBadRequest, `unknown field "timeout_ms"`},
		{"unknown op", `{"v": 2, "session": {"id": "ab"}, "edits": [{"op": "warp", "node": 1}]}`,
			http.StatusBadRequest, `unknown op "warp"`},
		{"set-cap missing value", `{"v": 2, "session": {"id": "ab"}, "edits": [{"op": "set-cap", "node": 2}]}`,
			http.StatusBadRequest, `missing "value"`},
		{"set-wire missing wire", `{"v": 2, "session": {"id": "ab"}, "edits": [{"op": "set-wire", "node": 1}]}`,
			http.StatusBadRequest, `missing "wire"`},
		{"graft missing sub", `{"v": 2, "session": {"id": "ab"}, "edits": [{"op": "graft", "node": 1}]}`,
			http.StatusBadRequest, `missing "sub"`},
		{"graft unreadable sub", `{"v": 2, "session": {"id": "ab"}, "edits": [{"op": "graft", "node": 1, "sub": "not a net"}]}`,
			http.StatusBadRequest, "graft"},
		{"unknown field", `{"v": 2, "session": {"id": "ab"}, "extra": 1}`,
			http.StatusBadRequest, "malformed JSON"},
		{"engine option", `{"v": 2, "session": {"id": "ab"}, "options": {"engine": "lishi"}}`,
			http.StatusBadRequest, `unknown field "engine"`},
		{"lambda out of range", `{"v": 2, "session": {"id": "ab"}, "options": {"lambda": 1.5}}`,
			http.StatusBadRequest, "must lie in [0, 1]"},
	}
	for _, tc := range cases {
		resp, b := postDelta(t, ts, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d; body %s", tc.name, resp.StatusCode, tc.status, b)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(b, &er); err != nil {
			t.Errorf("%s: bad error JSON: %v", tc.name, err)
			continue
		}
		if !strings.Contains(er.Error, tc.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, er.Error, tc.wantMsg)
		}
		if er.Class != "invalid" {
			t.Errorf("%s: class = %q, want invalid", tc.name, er.Class)
		}
	}

	resp, _ := postNet(t, ts, "/solve/delta", "text/plain", sampleNet)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("text/plain delta status = %d, want 400", resp.StatusCode)
	}
	gr, err := http.Get(ts.URL + "/solve/delta")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, gr.Body)
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET delta status = %d, want 405", gr.StatusCode)
	}

	snap := obs.Default().Snapshot()
	if got := snap.Counters["server.delta.decode.rejected"]; got != int64(len(cases)+1) {
		t.Errorf("decode.rejected = %d, want %d", got, len(cases)+1)
	}
	_ = sessionOnly
}

// TestDeltaConcurrentSessionEdits: many clients racing edit streams into
// one session all get coherent answers (the session serializes), every
// per-response ledger closes, and the memo stays consistent — the final
// no-edit re-solve is still a single root hit.
func TestDeltaConcurrentSessionEdits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8})
	cr, _ := deltaOK(t, ts, createBody(t, sampleNet, ""))

	const clients, perClient = 4, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := fmt.Sprintf(
					`{"v": 2, "session": {"id": %q}, "edits": [{"op": "set-cap", "node": %d, "value": %ge-14}]}`,
					cr.SessionID, []int{2, 4, 5}[(c+i)%3], 2.0+float64(c*perClient+i)*0.1)
				resp, b := postDelta(t, ts, body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("concurrent edit status %d: %s", resp.StatusCode, b)
					return
				}
				var dr DeltaResponse
				if err := json.Unmarshal(b, &dr); err != nil {
					t.Errorf("bad delta JSON: %v", err)
					return
				}
				if dr.Reused+dr.Resolved != dr.Lookups {
					t.Errorf("ledger open under concurrency: %d+%d != %d", dr.Reused, dr.Resolved, dr.Lookups)
				}
			}
		}(c)
	}
	wg.Wait()

	nr, _ := deltaOK(t, ts, fmt.Sprintf(`{"v": 2, "session": {"id": %q}}`, cr.SessionID))
	if nr.Lookups != 1 || nr.Reused != 1 {
		t.Fatalf("post-race no-edit ledger = %d/%d/%d, want a single root hit",
			nr.Reused, nr.Resolved, nr.Lookups)
	}
}

// TestEcoSoakUnderChaos is the delta-path fault-injection soak: clients
// hammer /solve/delta — creates, edit streams, dead-session posts —
// while a seeded injector deals slow solves, spurious cancels, worker
// panics, and corrupted results. The resilience claims are closed by
// accounting:
//
//   - every request gets an HTTP answer and /healthz still says 200;
//   - the reuse ledger closes globally: server.delta.reused +
//     server.delta.resolved == server.delta.lookups, and per response;
//   - the request ledger closes: requests == shed + decode.rejected +
//     every outcome class;
//   - the session books close: created == expired + evicted + active;
//   - every injected fault is consumed exactly once.
//
// Run under -race by scripts/check.sh (short) and `make ecosoak` (full).
func TestEcoSoakUnderChaos(t *testing.T) {
	clients, perClient := 12, 12
	if testing.Short() {
		clients, perClient = 6, 5
	}
	const sessions = 5
	const maxSessions = 3 // force LRU evictions mid-soak

	inj, err := faultinject.New(faultinject.Config{
		Seed: 73,
		Rates: map[faultinject.Fault]float64{
			faultinject.FaultSlow:      0.15,
			faultinject.FaultCancel:    0.15,
			faultinject.FaultPanic:     0.10,
			faultinject.FaultMalformed: 0.15,
		},
		SlowDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Workers:        4,
		QueueDepth:     4,
		DefaultTimeout: 30 * time.Second,
		Injector:       inj,
		MaxSessions:    maxSessions,
	})

	// Seed the session pool. Creates run under the injector too, so a
	// create may legitimately fail (panic/cancel); retry until minted.
	ids := make([]string, 0, sessions)
	for i := 0; len(ids) < sessions; i++ {
		if i > 50*sessions {
			t.Fatal("could not mint sessions under chaos")
		}
		resp, b := postDelta(t, ts, createBody(t, namedNet(fmt.Sprintf("eco%d", len(ids))), ""))
		if resp.StatusCode != http.StatusOK {
			continue
		}
		var dr DeltaResponse
		if err := json.Unmarshal(b, &dr); err != nil {
			t.Fatalf("bad create JSON: %v", err)
		}
		ids = append(ids, dr.SessionID)
	}

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
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < perClient; i++ {
				id := ids[rng.Intn(len(ids))]
				var body string
				switch rng.Intn(8) {
				case 0: // dead-session post: must 404, never solve
					body = `{"v": 2, "session": {"id": "feedfacefeedfacefeedfacefeedface"}}`
				case 1:
					body = fmt.Sprintf(`{"v": 2, "session": {"id": %q}}`, id)
				case 2:
					body = fmt.Sprintf(
						`{"v": 2, "session": {"id": %q}, "edits": [{"op": "set-wire", "node": 3, "wire": {"r": %g, "c": 2.1e-13, "length": 0.001}}]}`,
						id, 70.0+rng.Float64()*30)
				case 3:
					body = fmt.Sprintf(
						`{"v": 2, "session": {"id": %q}, "edits": [{"op": "set-rat", "node": 4, "value": %ge-9}]}`,
						id, 1.2+rng.Float64())
				default:
					body = fmt.Sprintf(
						`{"v": 2, "session": {"id": %q}, "edits": [{"op": "set-cap", "node": %d, "value": %ge-14}, {"op": "set-cap", "node": %d, "value": %ge-14}]}`,
						id, []int{2, 4, 5}[rng.Intn(3)], 1.5+rng.Float64()*2,
						[]int{2, 4, 5}[rng.Intn(3)], 1.5+rng.Float64()*2)
				}
				resp, b := postDelta(t, ts, body)
				switch resp.StatusCode {
				case http.StatusOK:
					var dr DeltaResponse
					if err := json.Unmarshal(b, &dr); err != nil {
						t.Errorf("200 with undecodable body: %v", err)
					} else if dr.Reused+dr.Resolved != dr.Lookups {
						t.Errorf("ledger open: %d+%d != %d", dr.Reused, dr.Resolved, dr.Lookups)
					}
				case http.StatusNotFound:
					var er ErrorResponse
					json.Unmarshal(b, &er)
					if er.Class != "invalid" {
						t.Errorf("404 class %q, want invalid", er.Class)
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("%d response missing Retry-After", resp.StatusCode)
					}
				case http.StatusInternalServerError, http.StatusGatewayTimeout:
					// Injected panics/corruptions (500) and cancels (504).
					var er ErrorResponse
					json.Unmarshal(b, &er)
					switch er.Class {
					case "panic", "internal", "canceled":
					default:
						t.Errorf("unexpected %d class %q: %s", resp.StatusCode, er.Class, b)
					}
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
		t.Fatalf("healthz after eco soak: %v %v", hr, err)
	}
	hr.Body.Close()

	var answered int
	for _, n := range status {
		answered += n
	}
	if answered != total {
		t.Fatalf("answered %d of %d delta requests", answered, total)
	}

	snap := obs.Default().Snapshot()
	ctr := snap.Counters
	t.Logf("status=%v", status)

	// Every injected fault was consumed exactly once.
	for _, f := range []faultinject.Fault{
		faultinject.FaultSlow, faultinject.FaultCancel,
		faultinject.FaultPanic, faultinject.FaultMalformed,
	} {
		if a, c := inj.Assigned(f), inj.Consumed(f); a != c {
			t.Errorf("%v: assigned %d != consumed %d", f, a, c)
		}
	}

	// The reuse ledger closes globally.
	if ctr["server.delta.reused"]+ctr["server.delta.resolved"] != ctr["server.delta.lookups"] {
		t.Errorf("global reuse ledger open: reused %d + resolved %d != lookups %d",
			ctr["server.delta.reused"], ctr["server.delta.resolved"], ctr["server.delta.lookups"])
	}

	// The request ledger closes: every request is a shed, a decode
	// rejection, or exactly one outcome class.
	var outcomes int64
	for name, v := range ctr {
		if strings.HasPrefix(name, "server.delta.outcome.") {
			outcomes += v
		}
	}
	shed := ctr["server.delta.shed.queue_full"] + ctr["server.delta.shed.draining"] + ctr["server.delta.shed.client_gone"]
	if got := shed + ctr["server.delta.decode.rejected"] + outcomes; got != ctr["server.delta.requests"] {
		t.Errorf("request ledger open: shed %d + rejected %d + outcomes %d != requests %d",
			shed, ctr["server.delta.decode.rejected"], outcomes, ctr["server.delta.requests"])
	}

	// The session books close.
	created := ctr["server.delta.sessions.created"]
	expired := ctr["server.delta.sessions.expired"]
	evicted := ctr["server.delta.sessions.evicted"]
	active := snap.Gauges["server.delta.sessions.active"]
	if created != expired+evicted+active {
		t.Errorf("session books open: created %d != expired %d + evicted %d + active %d",
			created, expired, evicted, active)
	}
	if evicted == 0 {
		t.Error("soak never evicted a session; the MaxSessions path went unexercised")
	}
}
