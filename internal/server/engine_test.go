package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestEngineEnvelope: the merge-engine knob is retired. The solver picks
// its merge path itself, so "options.engine" and ?engine= are decode
// rejections (400, class "invalid") on /solve, on /solve/batch, and on a
// JSON /solve post's query string, whatever name they carry — the once
// accepted vg, lishi and auto as much as an unknown one.
func TestEngineEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	net := mustJSON(t, sampleNet)

	for _, tc := range []struct{ label, engine string }{
		{"vg", "vg"}, {"lishi", "lishi"}, {"auto", "auto"}, {"unknown", "fastest"},
	} {
		envelope := `{"net":` + net + `,"options":{"engine":"` + tc.engine + `"}}`
		for _, post := range []struct {
			name, path, ct, body, want string
		}{
			{"envelope", "/solve", "application/json", envelope, `unknown field "engine"`},
			{"query", "/solve?engine=" + tc.engine, "text/plain", sampleNet, `unknown query parameter "engine"`},
			{"json-query", "/solve?engine=" + tc.engine, "application/json", `{"net":` + net + `}`, `unknown query parameter "engine"`},
			{"batch-query", "/solve/batch?engine=" + tc.engine, "application/json", `{"nets":[{"net":` + net + `}]}`, `unknown query parameter "engine"`},
		} {
			t.Run(tc.label+"-"+post.name, func(t *testing.T) {
				resp, body := postNet(t, ts, post.path, post.ct, post.body)
				wantError(t, resp, body, http.StatusBadRequest, post.want)
			})
		}

		// A batch item naming an engine fails alone, like any bad item.
		t.Run(tc.label+"-batch-item", func(t *testing.T) {
			resp, body := postNet(t, ts, "/solve/batch", "application/json", `{"nets":[`+envelope+`,{"net":`+net+`}]}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, want 200 (partial failure); body %s", resp.StatusCode, body)
			}
			var br BatchResponse
			if err := json.Unmarshal(body, &br); err != nil {
				t.Fatal(err)
			}
			bad := br.Results[0].Error
			if br.Succeeded != 1 || bad == nil || bad.Status != http.StatusBadRequest || bad.Class != "invalid" ||
				!strings.Contains(bad.Error, `unknown field "engine"`) {
				t.Fatalf("engine item = %+v, want a 400 invalid naming the field (succeeded %d)", bad, br.Succeeded)
			}
		})
	}
}

// TestEngineEnvelopeDelta carries the retirement to /solve/delta: an
// "options.engine" on a create or an edit, or an ?engine= on either, is a
// decode rejection, and the session it names is left as it was.
func TestEngineEnvelopeDelta(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base, _ := deltaOK(t, ts, createBody(t, sampleNet, ""))
	edit := `"edits": [{"op": "set-cap", "node": 2, "value": 4.1e-14}]`

	for _, engine := range []string{"vg", "lishi", "auto"} {
		opts := `"options": {"engine": "` + engine + `"}`
		for _, body := range []string{
			fmt.Sprintf(`{"v": 2, "net": %s, %s}`, mustJSON(t, sampleNet), opts),
			fmt.Sprintf(`{"v": 2, "session": {"id": %q}, %s, %s}`, base.SessionID, edit, opts),
		} {
			resp, b := postDelta(t, ts, body)
			wantError(t, resp, b, http.StatusBadRequest, `unknown field "engine"`)
			resp, b = postNet(t, ts, "/solve/delta?engine="+engine, "application/json", strings.Replace(body, ", "+opts, "", 1))
			wantError(t, resp, b, http.StatusBadRequest, `unknown query parameter "engine"`)
		}
	}

	// None of the rejected edits landed: a no-edit re-solve is a pure
	// root hit on the session as created.
	again, _ := deltaOK(t, ts, fmt.Sprintf(`{"v": 2, "session": {"id": %q}}`, base.SessionID))
	if again.Resolved != 0 || again.SlackPS != base.SlackPS {
		t.Fatalf("session moved under rejected deltas: resolved %d, slack %g vs %g", again.Resolved, again.SlackPS, base.SlackPS)
	}
}

// wantError asserts a decode rejection: the status, class "invalid",
// and an error that names what was wrong.
func wantError(t *testing.T, resp *http.Response, body []byte, status int, substr string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Errorf("status = %d, want %d; body %s", resp.StatusCode, status, body)
		return
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Errorf("bad error body: %v\n%s", err, body)
		return
	}
	if er.Class != "invalid" {
		t.Errorf("class = %q, want invalid (%s)", er.Class, er.Error)
	}
	if !strings.Contains(er.Error, substr) {
		t.Errorf("error %q does not mention %q", er.Error, substr)
	}
}
