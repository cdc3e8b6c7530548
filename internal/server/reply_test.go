package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"testing"

	"buffopt/internal/obs"
)

// compactReply requires a reply whose body decodes strictly into a T
// and equals, byte for byte, json.Compact of the indented encoding the
// server once wrote for that value (the same fields, order and values,
// only the whitespace gone), newline-terminated, sent with its
// Content-Length and not chunked. It returns the decoded value.
func compactReply[T any](t *testing.T, what string, resp *http.Response, body []byte) T {
	t.Helper()
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
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q", what, ct)
	}
	return v
}

// TestRepliesAreCompact checks every reply type the server writes
// against the indented encoding it replaced: the same fields, order and
// values, only the whitespace gone, each reply sent with its length.
func TestRepliesAreCompact(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postNet(t, ts, "/solve", "text/plain", sampleNet)
	compactReply[SolveResponse](t, "solve", resp, body)

	// A reply past net/http's 2 KiB pre-chunking buffer: without its
	// Content-Length it would stream chunked.
	resp, body = postNet(t, ts, "/solve", "text/plain", strings.Replace(sampleNet, "net sample", "net sample"+strings.Repeat("x", 4096), 1))
	compactReply[SolveResponse](t, "long solve", resp, body)

	resp, body = postNet(t, ts, "/solve?max_cands=1", "text/plain", sampleNet)
	if sr := compactReply[SolveResponse](t, "degraded solve", resp, body); len(sr.TierErrors) == 0 {
		t.Fatalf("a one-candidate cap left no tier errors: %s", body)
	}

	resp, body = postDelta(t, ts, createBody(t, sampleNet, ""))
	dr := compactReply[DeltaResponse](t, "delta create", resp, body)
	if !dr.Created {
		t.Fatalf("create reply not marked created: %s", body)
	}
	resp, body = postDelta(t, ts, `{"v": 2, "session": {"id": "`+dr.SessionID+`"}, "edits": [{"op": "set-cap", "node": 2, "value": 4.1e-14}]}`)
	if dr := compactReply[DeltaResponse](t, "delta continue", resp, body); dr.EditsApplied != 1 {
		t.Fatalf("continue applied %d edits: %s", dr.EditsApplied, body)
	}

	resp, body = postNet(t, ts, "/solve/batch", "application/json",
		`{"nets": [{"net": `+mustJSON(t, sampleNet)+`}, {"net": "not a net"}, {"net": `+mustJSON(t, sampleNet)+`, "options": {"max_cands": 1}}]}`)
	if br := compactReply[BatchResponse](t, "batch", resp, body); br.Succeeded != 2 || br.Failed != 1 {
		t.Fatalf("batch of two nets and one malformed item: %s", body)
	}

	resp, body = postNet(t, ts, "/solve", "text/plain", "net broken\n")
	if er := compactReply[ErrorResponse](t, "error", resp, body); er.Status != resp.StatusCode || er.Class != "invalid" {
		t.Fatalf("status %d, error reply %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	type readyz struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
	}
	if rz := compactReply[readyz](t, "readyz", resp, body); !rz.Ready {
		t.Fatalf("idle server not ready: %s", body)
	}
}

// overflowNet is sampleNet with required arrival times so large that the
// answer's slack in picoseconds overflows to +Inf, a number JSON cannot
// carry.
var overflowNet = strings.ReplaceAll(sampleNet, "rat=1.5e-9", "rat=1e300")

// TestUnencodableReplyIsTypedError: an answer whose reply JSON cannot
// carry is refused before it is cached or its session registered, as a
// 400 class invalid on every door that writes an answer, and in a batch
// only that item fails. A repeat refuses it again without storing it,
// and no reply reaches the encoder's 500 fallback.
func TestUnencodableReplyIsTypedError(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 16})
	refused := func(what string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %q", what, resp.StatusCode, body)
		}
		if er := compactReply[ErrorResponse](t, what, resp, body); er.Class != "invalid" || er.Status != http.StatusBadRequest {
			t.Fatalf("%s: error reply %s", what, body)
		}
	}
	resp, body := postNet(t, ts, "/solve", "text/plain", overflowNet)
	refused("solve", resp, body)
	stored := s.cache.Stats().Stored
	resp, body = postNet(t, ts, "/solve", "text/plain", overflowNet)
	refused("repeated solve", resp, body)
	if st := s.cache.Stats(); st.Stored != stored || st.Hits != 0 {
		t.Fatalf("a refused answer was cached: stored %d → %d, %d hits", stored, st.Stored, st.Hits)
	}

	resp, body = postNet(t, ts, "/solve/batch", "application/json", batchBody(t, sampleNet, overflowNet))
	br := compactReply[BatchResponse](t, "batch", resp, body)
	if resp.StatusCode != http.StatusOK || br.Succeeded != 1 || br.Failed != 1 ||
		br.Results[0].Result == nil || br.Results[1].Error == nil || br.Results[1].Error.Class != "invalid" {
		t.Fatalf("batch of a good net and an overflowing one: status %d, %s", resp.StatusCode, body)
	}

	resp, body = postDelta(t, ts, createBody(t, overflowNet, ""))
	refused("delta create", resp, body)
	if n := s.sessions.len(); n != 0 {
		t.Fatalf("a refused create registered %d sessions", n)
	}

	c := obs.Default().Snapshot().Counters
	if c["server.encode.failed"] != 0 || c["server.request.outcome.invalid"] != 2 ||
		c["server.batch.item.outcome.invalid"] != 1 || c["server.delta.outcome.invalid"] != 1 {
		t.Fatalf("counters: encode.failed %d, outcome.invalid solve %d, batch item %d, delta %d",
			c["server.encode.failed"], c["server.request.outcome.invalid"],
			c["server.batch.item.outcome.invalid"], c["server.delta.outcome.invalid"])
	}
}

// ecoReply is a reply the size of an eco_edit answer: a /solve/delta
// continue carrying 95 buffer placements at full float precision.
func ecoReply() DeltaResponse {
	rng := rand.New(rand.NewPCG(1, 2))
	resp := DeltaResponse{
		SolveResponse: SolveResponse{
			Net:        "eco-690",
			Tier:       "exact",
			NumBuffers: 95,
			SlackPS:    -123.45678901234,
			MaxDelayPS: 987.6543210987,
			MaxNoiseV:  0.71234567890123,
			ElapsedMS:  0.8123456789,
		},
		SessionID:    "5f0c2a9d8e7b6a1c",
		EditsApplied: 1,
		Nodes:        690,
		Reused:       12,
		Resolved:     9,
		Lookups:      21,
	}
	for i := 0; i < 95; i++ {
		resp.Buffers = append(resp.Buffers, BufferPlacement{
			Node: rng.IntN(690),
			Name: "buf4x",
			XMM:  rng.Float64() * 9,
			YMM:  rng.Float64() * 9,
		})
	}
	return resp
}

// discardWriter is a ResponseWriter that keeps headers and drops the
// body, so the benchmark prices the encode and the write call alone.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkWriteJSON prices writing one 95-buffer eco_edit reply.
func BenchmarkWriteJSON(b *testing.B) {
	resp := ecoReply()
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		writeJSON(w, http.StatusOK, resp)
	}
}
