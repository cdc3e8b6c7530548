package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"buffopt/internal/obs"
	"buffopt/internal/server"
)

// routerReply reads resp's body and requires that it decode strictly
// into a T and equal, byte for byte, json.Compact of the indented
// encoding the router once wrote for that value (the same fields, order
// and values, only the whitespace gone), newline-terminated, sent with
// its Content-Length and not chunked. It returns the decoded value.
func routerReply[T any](t *testing.T, what string, resp *http.Response) T {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%s: reply does not decode as %T: %v\n%s", what, v, err, body)
	}
	var ind, want bytes.Buffer
	enc := json.NewEncoder(&ind)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&want, ind.Bytes()); err != nil {
		t.Fatal(err)
	}
	if w := append(bytes.TrimSpace(want.Bytes()), '\n'); !bytes.Equal(body, w) {
		t.Fatalf("%s: reply is not the compacted indented encoding\n got %s\nwant %s", what, body, w)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body", what, resp.ContentLength, resp.TransferEncoding, len(body))
	}
	return v
}

// TestRouterRepliesAreCompact covers the router's own replies (the
// merged batch, its errors, readyz) and the replica replies it forwards,
// including a replica's 500 for an answer JSON cannot carry.
func TestRouterRepliesAreCompact(t *testing.T) {
	freshObs(t)
	lab := startTestLab(t, LabConfig{
		Replicas: 2,
		Server:   server.Config{Workers: 2, QueueDepth: 8, CacheEntries: 64},
		Router:   Config{ProbeInterval: 50 * time.Millisecond},
	})
	base := routerURL(lab)
	post := func(path, ct, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+path, ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if sr := routerReply[server.SolveResponse](t, "solve", post("/solve", "text/plain", labNet(0))); sr.Tier == "" {
		t.Fatalf("forwarded solve has no tier: %+v", sr)
	}
	// A reply past net/http's 2 KiB pre-chunking buffer: without its
	// Content-Length the forwarded copy would stream chunked.
	long := strings.Replace(labNet(4), "net fleet4", "net fleet4"+strings.Repeat("x", 4096), 1)
	if sr := routerReply[server.SolveResponse](t, "long solve", post("/solve", "text/plain", long)); len(sr.Net) < 4096 {
		t.Fatalf("forwarded solve names net %q", sr.Net)
	}

	overflow := strings.ReplaceAll(labNet(1), "rat=1.5e-9", "rat=1e300")
	resp := post("/solve", "text/plain", overflow)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("overflowing answer through the router: status %d", resp.StatusCode)
	}
	if er := routerReply[server.ErrorResponse](t, "unencodable solve", resp); er.Class != "internal" {
		t.Fatalf("overflowing answer: %+v", er)
	}

	var items []string
	for _, n := range []string{labNet(2), "garbage", labNet(3)} {
		j, _ := json.Marshal(n)
		items = append(items, `{"net": `+string(j)+`}`)
	}
	br := routerReply[server.BatchResponse](t, "merged batch",
		post("/solve/batch", "application/json", `{"nets": [`+strings.Join(items, ", ")+`]}`))
	if br.Count != 3 || br.Succeeded != 2 || br.Failed != 1 {
		t.Fatalf("merged batch %d/%d/%d, want 3/2/1", br.Count, br.Succeeded, br.Failed)
	}

	resp, err := http.Get(base + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	if er := routerReply[server.ErrorResponse](t, "router error", resp); er.Status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve: %+v", er)
	}

	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	type readyz struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
	}
	routerReply[readyz](t, "readyz", resp)
}

// TestRouterUnencodableReply: a router body JSON cannot carry is a 500
// class internal, counted once, never an empty 200.
func TestRouterUnencodableReply(t *testing.T) {
	freshObs(t)
	rec := httptest.NewRecorder()
	writeRouterJSON(rec, http.StatusOK, map[string]float64{"slack_ps": math.Inf(1)})
	var er server.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusInternalServerError || er.Class != "internal" {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body)
	}
	if got := obs.Default().Snapshot().Counters["fleet.encode.failed"]; got != 1 {
		t.Fatalf("fleet.encode.failed = %d, want 1", got)
	}
}
