package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestEngineEnvelope walks the "options.engine" decode rules: every
// registered engine name is accepted (envelope and query string alike), an
// unknown name is a 400 with error class "invalid" — rejected at decode
// time, before a worker slot is spent — and the engines agree on the
// answer, because they are bit-identical by construction.
func TestEngineEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	net := mustJSON(t, sampleNet)

	base, _ := solveOK(t, ts, "text/plain", sampleNet)
	for _, engine := range []string{"vg", "lishi", "auto"} {
		// JSON envelope path.
		sr, _ := solveOK(t, ts, "application/json",
			`{"v":1,"net":`+net+`,"options":{"engine":"`+engine+`"}}`)
		if sr.NumBuffers != base.NumBuffers || sr.SlackPS != base.SlackPS {
			t.Errorf("engine %s: (%d buffers, %g ps) disagrees with default (%d, %g)",
				engine, sr.NumBuffers, sr.SlackPS, base.NumBuffers, base.SlackPS)
		}
		// Raw-netfmt query path.
		qr, _ := solveOK(t, ts, "text/plain", sampleNet)
		resp, b := postNet(t, ts, "/solve?engine="+engine, "text/plain", sampleNet)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %s query: status %d, body %s", engine, resp.StatusCode, b)
		}
		if err := json.Unmarshal(b, &qr); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, b)
		}
		if qr.NumBuffers != base.NumBuffers || qr.SlackPS != base.SlackPS {
			t.Errorf("engine %s (query): answer diverged from default", engine)
		}
		// The objective route threads the engine too.
		or, _ := solveOK(t, ts, "application/json",
			`{"net":`+net+`,"problem":{"objective":"max-slack-noise"},"options":{"engine":"`+engine+`"}}`)
		if or.Tier != "exact" {
			t.Errorf("engine %s objective solve: tier %s", engine, or.Tier)
		}
	}

	for _, tc := range []struct {
		name string
		path string
		ct   string
		body string
	}{
		{"envelope", "/solve", "application/json", `{"net":` + net + `,"options":{"engine":"fastest"}}`},
		{"query", "/solve?engine=fastest", "text/plain", sampleNet},
	} {
		t.Run("unknown-"+tc.name, func(t *testing.T) {
			resp, body := postNet(t, ts, tc.path, tc.ct, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("bad error body: %v", err)
			}
			if er.Class != "invalid" {
				t.Errorf("class = %q, want invalid", er.Class)
			}
			if !strings.Contains(er.Error, "engine") {
				t.Errorf("error %q does not mention the engine", er.Error)
			}
		})
	}
}

// TestEngineSharesCacheKey: the engine knob changes how the answer is
// computed, never what it is, so it is deliberately excluded from the
// cache key — a net solved under one engine is a cache hit under another,
// with byte-identical solver output.
func TestEngineSharesCacheKey(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 16})
	net := mustJSON(t, sampleNet)

	first, b1 := solveOK(t, ts, "application/json",
		`{"net":`+net+`,"options":{"engine":"vg"}}`)
	if first.Cached {
		t.Fatal("first solve reported a cache hit")
	}
	second, b2 := solveOK(t, ts, "application/json",
		`{"net":`+net+`,"options":{"engine":"lishi"}}`)
	if !second.Cached {
		t.Fatal("lishi request missed the cache entry the vg request filled")
	}
	if normalize(t, b1) != normalize(t, b2) {
		t.Errorf("cached cross-engine answers differ:\n%s\n%s", b1, b2)
	}

	// The default path — no engine named at all — resolves to auto and
	// shares the same entry with the same bytes.
	third, b3 := solveOK(t, ts, "application/json", `{"net":`+net+`}`)
	if !third.Cached {
		t.Fatal("default-engine request missed the cache entry the vg request filled")
	}
	if normalize(t, b1) != normalize(t, b3) {
		t.Errorf("cached default-engine answer differs from vg:\n%s\n%s", b1, b3)
	}
}

// TestEngineEnvelopeDelta carries the wire-compatibility contract to
// /solve/delta: a v2 "options.engine" naming vg, lishi, or auto is
// accepted on both a create and an edit and answers exactly as the same
// request with no engine does. (Unknown names are a decode rejection; see
// TestDeltaRejections.)
func TestEngineEnvelopeDelta(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base, baseBody := deltaOK(t, ts, createBody(t, sampleNet, ""))
	edit := `"edits": [{"op": "set-cap", "node": 2, "value": 4.1e-14}]`
	_, editBody := deltaOK(t, ts, fmt.Sprintf(`{"v": 2, "session": {"id": %q}, %s}`, base.SessionID, edit))

	for _, engine := range []string{"vg", "lishi", "auto"} {
		opts := `"options": {"engine": "` + engine + `"}`
		cr, cb := deltaOK(t, ts, fmt.Sprintf(`{"v": 2, "net": %s, %s}`, mustJSON(t, sampleNet), opts))
		if normalize(t, cb) != normalize(t, baseBody) {
			t.Errorf("engine %s create: answer differs from no engine:\n%s\n%s", engine, cb, baseBody)
		}
		_, eb := deltaOK(t, ts, fmt.Sprintf(`{"v": 2, "session": {"id": %q}, %s, %s}`, cr.SessionID, edit, opts))
		if normalize(t, eb) != normalize(t, editBody) {
			t.Errorf("engine %s edit: answer differs from no engine:\n%s\n%s", engine, eb, editBody)
		}
	}
}
