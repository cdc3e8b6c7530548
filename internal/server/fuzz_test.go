package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"buffopt/internal/guard"
	"buffopt/internal/netfmt"
)

// FuzzDecodeRequest throws hostile HTTP payloads at every decode path:
// /solve (decodeSolve), each /solve/batch item (the body wrapped as a
// one-item batch, through decodeBatch and decodeJSON), and /solve/delta
// (decodeDelta) — malformed JSON envelopes, truncated netfmt, binary
// garbage, mismatched content types, stray query parameters and the
// retired request shapes. The invariants: no decoder panics, every error
// carries a guard class the handler can map to a status (invalid → 400
// or budget → 413, never the unclassified "error"), and every success
// yields a validated tree and a positive timeout.
func FuzzDecodeRequest(f *testing.F) {
	// Well-formed payloads, both content types.
	f.Add("text/plain", "", sampleNet)
	f.Add("application/json", "", `{"net":"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nend\n","options":{"timeout_ms":1000}}`)
	// Truncated netfmt: header only, mid-node, missing end.
	f.Add("text/plain", "", "net sample\n")
	f.Add("text/plain", "", "net sample\ndriver r=300 t=5e-11\nnode 0 sou")
	f.Add("text/plain", "", strings.TrimSuffix(sampleNet, "end\n"))
	// Malformed JSON: truncated, wrong types, unknown fields, no net.
	f.Add("application/json", "", `{"net": `)
	f.Add("application/json", "", `{"net": 42}`)
	f.Add("application/json", "", `{"net":"x","bogus":true}`)
	f.Add("application/json", "", `{}`)
	f.Add("application/json", "", `{"net":"net x\nend\n","options":{"timeout_ms":-5}}`)
	// Hostile numbers and structure.
	f.Add("text/plain", "", "net x\ndriver r=1e309 t=nan\nnode 0 source x=0 y=0\nend\n")
	f.Add("text/plain", "", "net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nnode 1 sink parent=9 wire=1,1,1 x=0 y=0 cap=1 rat=1 nm=1 name=s\nend\n")
	// Binary garbage and emptiness.
	f.Add("text/plain", "", "")
	f.Add("application/json", "", "")
	f.Add("text/plain", "", "\x00\xff\xfe net \x00\nend")
	// Versions other than 2, an explicit v2, and the problem sub-object
	// in legal and illegal shapes.
	f.Add("application/json", "", `{"v":1,"net":"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nend\n"}`)
	f.Add("application/json", "", `{"v":2,"net":"net x\nend\n"}`)
	f.Add("application/json", "", `{"v":-1,"net":"x"}`)
	f.Add("application/json", "", `{"net":"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nend\n","problem":{"objective":"max-slack-noise","k":2}}`)
	f.Add("application/json", "", `{"net":"x","problem":{"objective":"bogus"}}`)
	f.Add("application/json", "", `{"net":"x","problem":{}}`)
	f.Add("application/json", "", `{"net":"x","problem":{"objective":"min-buffers-noise","k":1}}`)
	f.Add("application/json", "", `{"net":"x","problem":{"objective":"max-slack","k":-7}}`)
	// Options in legal and illegal placements, and the delta-only fields
	// that /solve must bounce.
	f.Add("application/json", "", `{"v":2,"net":"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nend\n","options":{"timeout_ms":1000,"lambda":0.7,"seglen":0}}`)
	f.Add("application/json", "", `{"v":2,"net":"x","timeout_ms":5}`)
	f.Add("application/json", "", `{"v":1,"net":"x","options":{"timeout_ms":5}}`)
	f.Add("application/json", "", `{"v":2,"net":"x","options":{"max_cands":-1}}`)
	f.Add("application/json", "", `{"v":2,"session":{"id":"abc"}}`)
	f.Add("application/json", "", `{"v":2,"net":"x","edits":[{"op":"set-cap","node":2,"value":1e-14}]}`)
	f.Add("application/json", "", `{"v":1,"session":{"id":"abc"}}`)
	f.Add("application/json", "", `{"v":2,"options":{"rise":-1},"net":"x"}`)
	// Retired shapes: the v1 flat envelope, a top-level knob without a
	// version, the engine knob in the envelope and in the query string.
	f.Add("application/json", "", `{"v":1,"net":"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nend\n","timeout_ms":5,"lambda":0.6}`)
	f.Add("application/json", "", `{"net":"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nend\n","timeout_ms":1000}`)
	f.Add("application/json", "", `{"v":2,"net":"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nend\n","options":{"engine":"lishi"}}`)
	f.Add("text/plain", "engine=vg", sampleNet)
	f.Add("application/json", "engine=auto", `{"v":2,"net":"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nend\n"}`)
	// Physics knobs outside their domains, and a delta continue with knobs.
	f.Add("application/json", "", `{"v":2,"net":"x","options":{"lambda":2}}`)
	f.Add("application/json", "", `{"v":2,"net":"x","options":{"vdd":-1.8,"bufnm":-0.1}}`)
	f.Add("application/json", "", `{"v":2,"session":{"id":"abc"},"options":{"timeout_ms":50,"max_cands":8},"edits":[{"op":"prune","node":3}]}`)

	f.Fuzz(func(t *testing.T, contentType, query, body string) {
		s := New(Config{
			MaxBytes: 1 << 16,
			Limits:   netfmt.Limits{MaxNodes: 512, MaxAggressors: 16},
		})
		post := func(path, body string) *http.Request {
			r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
			r.URL.RawQuery = query
			r.Header.Set("Content-Type", contentType)
			return r
		}
		q, err := url.ParseQuery(query)
		if err == nil {
			req, err := s.decodeSolve(contentType, q, []byte(body))
			checkDecoded(t, s, req, err)
		}

		if env, err := s.decodeBatch(post("/solve/batch", `{"nets": [`+body+`]}`)); err != nil {
			checkDecoded(t, s, nil, err)
		} else {
			for _, item := range env.Nets {
				req, err := s.decodeJSON(item)
				checkDecoded(t, s, req, err)
			}
		}

		dr, err := s.decodeDelta(post("/solve/delta", body))
		switch {
		case err != nil:
			checkDecoded(t, s, nil, err)
		case dr.create != nil:
			checkDecoded(t, s, dr.create, nil)
		case dr.sessionID == "":
			t.Fatal("delta decode success with neither a session nor a create")
		}
	})
}

// checkDecoded asserts FuzzDecodeRequest's invariants on one decode
// outcome: a classed error, or a request whose tree validates and whose
// timeout and k are in range.
func checkDecoded(t *testing.T, s *Server, req *solveRequest, err error) {
	t.Helper()
	if err != nil {
		switch guard.Class(err) {
		case "invalid", "budget":
		default:
			t.Fatalf("decode error unclassified (%q): %v", guard.Class(err), err)
		}
		return
	}
	if req.tree == nil {
		t.Fatal("decode success with nil tree")
	}
	if err := req.tree.Validate(); err != nil {
		t.Fatalf("decode success with invalid tree: %v", err)
	}
	if req.timeout <= 0 || req.timeout > s.cfg.MaxTimeout {
		t.Fatalf("decode success with out-of-range timeout %v", req.timeout)
	}
	if req.k != nil && (req.objective == nil || *req.k < 0) {
		t.Fatalf("decode success with dangling or negative k: %v obj %v", *req.k, req.objective)
	}
	if err := req.params.Validate(); err != nil {
		t.Fatalf("decode success with invalid noise params: %v", err)
	}
}
