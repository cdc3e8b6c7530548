package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"buffopt/internal/faultinject"
	"buffopt/internal/netfmt"
	"buffopt/internal/obs"
)

// sampleNet mirrors testdata/sample.net: a 3-sink Section V-style net
// with one noisy sink, small enough that every tier solves it instantly.
const sampleNet = `net sample
driver r=300 t=5e-11
node 0 source x=0 y=0
node 1 internal parent=0 wire=240,6e-13,0.003 x=0.003 y=0 bufok=1
node 2 sink parent=1 wire=160,4e-13,0.002 x=0.005 y=0 cap=2.5e-14 rat=1.5e-9 nm=0.8 name=dff_a
node 3 internal parent=1 wire=80,2e-13,0.001 x=0.003 y=0.001 bufok=1
node 4 sink parent=3 wire=120,3e-13,0.0015 x=0.0045 y=0.001 cap=1.8e-14 rat=1.5e-9 nm=0.8 name=dff_c
node 5 sink parent=3 wire=80,2e-13,0.001 x=0.003 y=0.002 cap=2.2e-14 rat=1.5e-9 nm=0.8 name=dff_b aggr=0.5:7.2e9
end
`

// newTestServer builds a Server on a fresh obs registry and wraps its
// handler in an httptest.Server. Restores the old registry on cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	old := obs.Default()
	obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(old) })
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postNet(t *testing.T, ts *httptest.Server, path, contentType, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func TestSolveRawNetfmt(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postNet(t, ts, "/solve", "text/plain", sampleNet)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if sr.Net != "sample" || sr.Tier == "" {
		t.Fatalf("response = %+v, want net sample with a tier", sr)
	}
	if sr.NumBuffers != len(sr.Buffers) {
		t.Fatalf("NumBuffers %d != len(Buffers) %d", sr.NumBuffers, len(sr.Buffers))
	}
	if sr.NoiseViolations != 0 {
		t.Fatalf("sample net should be fixable, got %d violations", sr.NoiseViolations)
	}
}

func TestSolveJSONEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	env, _ := json.Marshal(map[string]any{
		"net":     sampleNet,
		"options": map[string]any{"timeout_ms": 5000, "lambda": 0.6},
	})
	resp, body := postNet(t, ts, "/solve", "application/json", string(env))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if sr.Net != "sample" {
		t.Fatalf("net = %q", sr.Net)
	}
}

// TestSolveRejections walks the decode failure modes and checks each maps
// to the documented status and class.
func TestSolveRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBytes: 2048})
	cases := []struct {
		name        string
		contentType string
		body        string
		wantStatus  int
		wantClass   string
	}{
		{"malformed JSON", "application/json", `{"net": `, http.StatusBadRequest, "invalid"},
		{"missing net", "application/json", `{}`, http.StatusBadRequest, "invalid"},
		{"unknown field", "application/json", `{"net":"x","bogus":1}`, http.StatusBadRequest, "invalid"},
		{"negative timeout", "application/json", `{"net":"net x\nend\n","options":{"timeout_ms":-1}}`, http.StatusBadRequest, "invalid"},
		{"garbage netfmt", "text/plain", "this is not a net\n", http.StatusBadRequest, "invalid"},
		{"truncated netfmt", "text/plain", strings.Join(strings.Split(sampleNet, "\n")[:4], "\n"), http.StatusBadRequest, "invalid"},
		{"oversized body", "text/plain", strings.Repeat("# pad\n", 600) + sampleNet, http.StatusRequestEntityTooLarge, "budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postNet(t, ts, "/solve", tc.contentType, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body is not JSON: %v\n%s", err, body)
			}
			if er.Class != tc.wantClass {
				t.Fatalf("class = %q, want %q (%s)", er.Class, tc.wantClass, er.Error)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/solve")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /solve = %d, want 405", resp.StatusCode)
		}
	})
}

// TestPhysicsKnobsRejectedAtDecode: a noise knob outside its domain — λ
// outside [0, 1], a non-positive aggressor slope vdd/rise, a negative
// buffer noise margin — is a decode rejection (400, class "invalid") on
// every JSON path, never admitted to fail inside the solve or, under a
// max-slack objective, to answer 200 with a noise report computed from
// the invalid value.
func TestPhysicsKnobsRejectedAtDecode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	net := mustJSON(t, sampleNet)
	cases := []struct{ name, options, want string }{
		{"lambda above 1", `{"lambda": 2}`, "must lie in [0, 1]"},
		{"lambda negative", `{"lambda": -0.1}`, "must lie in [0, 1]"},
		{"zero slope", `{"vdd": 0}`, "must be positive and finite"},
		{"negative slope", `{"vdd": -1.8}`, "must be positive and finite"},
		{"negative bufnm", `{"bufnm": -0.1}`, "bufnm = -0.1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, body := range []string{
				`{"net": ` + net + `, "options": ` + tc.options + `}`,
				`{"net": ` + net + `, "options": ` + tc.options + `, "problem": {"objective": "max-slack"}}`,
			} {
				resp, b := postNet(t, ts, "/solve", "application/json", body)
				wantError(t, resp, b, http.StatusBadRequest, tc.want)

				resp, b = postNet(t, ts, "/solve/batch", "application/json", `{"nets": [`+body+`]}`)
				var br BatchResponse
				if err := json.Unmarshal(b, &br); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("batch status %d, body %s", resp.StatusCode, b)
				}
				if e := br.Results[0].Error; e == nil || e.Status != http.StatusBadRequest || e.Class != "invalid" || !strings.Contains(e.Error, tc.want) {
					t.Errorf("batch item error = %+v, want a 400 invalid mentioning %q", e, tc.want)
				}

				resp, b = postDelta(t, ts, strings.Replace(body, "{", `{"v": 2, `, 1))
				wantError(t, resp, b, http.StatusBadRequest, tc.want)
			}
		})
	}
	snap := obs.Default().Snapshot()
	if got, want := snap.Counters["server.decode.rejected"], int64(2*len(cases)); got != want {
		t.Errorf("server.decode.rejected = %d, want %d", got, want)
	}
	if got := snap.Counters["server.request.outcome.invalid"]; got != 0 {
		t.Errorf("server.request.outcome.invalid = %d, want 0: a bad knob reached a worker", got)
	}
}

// TestQueryKnobs: the raw-netfmt path honors ?timeout_ms and ?max_cands
// and rejects garbage values.
func TestQueryKnobs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postNet(t, ts, "/solve?timeout_ms=5000&max_cands=64", "text/plain", sampleNet)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	resp, _ = postNet(t, ts, "/solve?timeout_ms=never", "text/plain", sampleNet)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage timeout_ms = %d, want 400", resp.StatusCode)
	}
}

// TestPanicIsolation: an injected worker panic becomes that request's 500
// (class "panic"), and the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	inj, err := faultinject.New(faultinject.Config{
		Seed:  7,
		Rates: map[faultinject.Fault]float64{faultinject.FaultPanic: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Injector: inj})

	resp, body := postNet(t, ts, "/solve", "text/plain", sampleNet)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Class != "panic" {
		t.Fatalf("class = %q, want panic", er.Class)
	}
	if got := inj.Consumed(faultinject.FaultPanic); got != 1 {
		t.Fatalf("consumed panics = %d, want 1", got)
	}

	// The process survived: liveness and metrics still answer.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v %v", hr, err)
	}
	hr.Body.Close()
	snap := obs.Default().Snapshot()
	if snap.Counters["server.request.outcome.panic"] != 1 {
		t.Fatalf("outcome.panic = %d, want 1", snap.Counters["server.request.outcome.panic"])
	}
}

// TestObjectiveSolveFaultBooks: an objective /solve post (a "problem"
// envelope, answered by core.Optimize) consumes the request's injected
// slow or malformed fault exactly once, like a ladder post, and a
// malformed answer is refused with 500, class "internal".
func TestObjectiveSolveFaultBooks(t *testing.T) {
	body := `{"v":2,"net":` + mustJSON(t, sampleNet) + `,"problem":{"objective":"max-slack-noise"}}`
	for _, tc := range []struct {
		fault  faultinject.Fault
		status int
	}{
		{faultinject.FaultSlow, http.StatusOK},
		{faultinject.FaultMalformed, http.StatusInternalServerError},
	} {
		t.Run(tc.fault.String(), func(t *testing.T) {
			inj, err := faultinject.New(faultinject.Config{
				Seed:      7,
				Rates:     map[faultinject.Fault]float64{tc.fault: 1},
				SlowDelay: 10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			_, ts := newTestServer(t, Config{Injector: inj})
			resp, b := postNet(t, ts, "/solve", "application/json", body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, b)
			}
			if a, c := inj.Assigned(tc.fault), inj.Consumed(tc.fault); a != 1 || c != 1 {
				t.Fatalf("assigned %d, consumed %d; want exactly 1 each", a, c)
			}
			if tc.status == http.StatusOK {
				return
			}
			var er ErrorResponse
			if err := json.Unmarshal(b, &er); err != nil {
				t.Fatal(err)
			}
			if er.Class != "internal" {
				t.Fatalf("class = %q, want internal", er.Class)
			}
		})
	}
}

// TestOverloadShedsAndReadyzFlips: with one worker, a one-deep queue, and
// every solve held slow, the third concurrent request must shed with 429 +
// Retry-After while /readyz reports 503; once the backlog clears, /readyz
// recovers.
func TestOverloadShedsAndReadyzFlips(t *testing.T) {
	inj, err := faultinject.New(faultinject.Config{
		Seed:      3,
		Rates:     map[faultinject.Fault]float64{faultinject.FaultSlow: 1},
		SlowDelay: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Injector: inj})

	// Occupy the worker and the queue slot.
	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postNet(t, ts, "/solve", "text/plain", sampleNet)
			codes <- resp.StatusCode
		}()
	}
	// Wait until both are inside admission (one running, one queued).
	deadline := time.Now().Add(5 * time.Second)
	for !s.saturated() {
		if time.Now().After(deadline) {
			t.Fatal("queue never saturated")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Readiness must report overload while the queue is full.
	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while saturated = %d, want 503", rr.StatusCode)
	}
	if rr.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 missing Retry-After")
	}

	// A third request must shed immediately with 429 + Retry-After.
	resp, body := postNet(t, ts, "/solve", "text/plain", sampleNet)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Class != "shed" || er.RetryAfterS < 1 {
		t.Fatalf("shed body = %+v", er)
	}

	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request finished %d, want 200", code)
		}
	}

	// Backlog cleared: ready again, and the books balance.
	rr, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after drain-down = %d, want 200", rr.StatusCode)
	}
	snap := obs.Default().Snapshot()
	if snap.Counters["server.shed.queue_full"] != 1 {
		t.Fatalf("shed.queue_full = %d, want 1", snap.Counters["server.shed.queue_full"])
	}
}

// TestShedRetryAfterJitterBounds: the Retry-After seconds on a shed
// response are the configured base plus bounded jitter — never below the
// base, never above base + max(1, base/2) — and actually vary between
// draws, so shed clients (including the fleet router's retry loop) do
// not retry in lockstep.
func TestShedRetryAfterJitterBounds(t *testing.T) {
	for _, base := range []time.Duration{0, time.Second, 4 * time.Second, 10 * time.Second} {
		s := New(Config{RetryAfter: base})
		lo := int64(base / time.Second)
		if lo < 1 {
			lo = 1
		}
		spread := lo / 2
		if spread < 1 {
			spread = 1
		}
		seen := map[int64]bool{}
		for i := 0; i < 200; i++ {
			status, body := s.shedResponse(errOverloaded)
			if status != http.StatusTooManyRequests {
				t.Fatalf("overloaded shed status = %d", status)
			}
			if body.RetryAfterS < lo || body.RetryAfterS > lo+spread {
				t.Fatalf("base %v: RetryAfterS = %d outside [%d, %d]", base, body.RetryAfterS, lo, lo+spread)
			}
			seen[body.RetryAfterS] = true
		}
		// With ≥2 values in range, 200 identical draws means the jitter
		// is not actually being applied.
		if len(seen) < 2 {
			t.Errorf("base %v: 200 draws produced a single value %v; no jitter", base, seen)
		}
	}
}

// TestSolveShedCarriesRetryAfter pins the single-solve shed path's wire
// shape (the batch path's was already pinned): the 503 carries a
// Retry-After header, the header and the body's retry_after_s agree, and
// the value respects the jitter bounds.
func TestSolveShedCarriesRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{RetryAfter: 4 * time.Second})
	s.beginDrain()
	resp, body := postNet(t, ts, "/solve", "text/plain", sampleNet)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /solve = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	hdr := resp.Header.Get("Retry-After")
	if hdr == "" {
		t.Fatal("single-solve shed missing Retry-After header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Class != "shed" {
		t.Fatalf("class = %q, want shed", er.Class)
	}
	hdrS, err := strconv.ParseInt(hdr, 10, 64)
	if err != nil || hdrS != er.RetryAfterS {
		t.Fatalf("header Retry-After %q != body retry_after_s %d", hdr, er.RetryAfterS)
	}
	if er.RetryAfterS < 4 || er.RetryAfterS > 6 {
		t.Fatalf("RetryAfterS = %d outside the [4, 6] jitter bounds for a 4s base", er.RetryAfterS)
	}
}

// TestMetricsEndpoint: /metrics serves the obs snapshot as JSON and
// reflects request counters, /metrics/prom carries the same counters,
// and the service mux serves no /debug/vars.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 16})
	if resp, body := postNet(t, ts, "/solve", "text/plain", sampleNet); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve = %d, body %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics is not JSON: %v", err)
	}
	if snap.Counters["server.requests"] != 1 {
		t.Fatalf("server.requests = %d, want 1", snap.Counters["server.requests"])
	}
	if snap.Counters["server.request.outcome.ok"] != 1 {
		t.Fatalf("outcome.ok = %d, want 1", snap.Counters["server.request.outcome.ok"])
	}
	if snap.Counters["server.cache.lookups"] != 1 {
		t.Fatalf("server.cache.lookups = %d, want 1", snap.Counters["server.cache.lookups"])
	}
	presp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(presp.Body)
	presp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "\nbuffopt_server_cache_lookups_total 1\n") {
		t.Fatalf("/metrics/prom lacks buffopt_server_cache_lookups_total 1:\n%s", prom)
	}
	vresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/vars = %d on the service mux, want 404", vresp.StatusCode)
	}
}

// TestTimeoutClamp: a request asking for an hour is clamped to the
// server's MaxTimeout rather than pinning a worker.
func TestTimeoutClamp(t *testing.T) {
	inj, err := faultinject.New(faultinject.Config{
		Seed:      5,
		Rates:     map[faultinject.Fault]float64{faultinject.FaultSlow: 1},
		SlowDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Injector: inj, MaxTimeout: 150 * time.Millisecond})

	start := time.Now()
	resp, body := postNet(t, ts, fmt.Sprintf("/solve?timeout_ms=%d", int64(time.Hour/time.Millisecond)), "text/plain", sampleNet)
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("request ran %v; MaxTimeout clamp did not hold", elapsed)
	}
	// The slow fault ate the whole budget; the ladder's last rung still
	// reports an answer, so this is a 200 — degraded, not dead.
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Degraded {
		t.Fatalf("an hour-long stall inside a 150ms budget must degrade, got %+v", sr)
	}
}

// TestSeglenPastNodeLimitIsRefused: a seglen that would segment the net
// past the node limit is a 413 on /solve and on a /solve/delta create,
// answered before any split. A configured limit refuses a seglen that
// segment's own cap would allow; with no limit configured, that cap
// refuses 1e-12, a billion-fold split of the net's 8.5 mm of wire.
func TestSeglenPastNodeLimitIsRefused(t *testing.T) {
	for _, tc := range []struct {
		maxNodes int
		seglen   string
	}{{64, "1e-4"}, {0, "1e-12"}} {
		_, ts := newTestServer(t, Config{Limits: netfmt.Limits{MaxNodes: tc.maxNodes}})
		body := fmt.Sprintf(`{"v": 2, "net": %s, "options": {"seglen": %s}}`, mustJSON(t, sampleNet), tc.seglen)
		for _, path := range []string{"/solve", "/solve/delta"} {
			resp, b := postNet(t, ts, path, "application/json", body)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("max nodes %d, seglen %s, %s: status = %d, want 413; body %s",
					tc.maxNodes, tc.seglen, path, resp.StatusCode, b)
			}
		}
	}
}
