package server

import (
	"fmt"
	"net/url"
	"strings"
	"testing"
)

// TestKeyerAgreesAcrossWireShapes: the router's affinity key is the same
// function as the replicas' cache key, so the same problem posted as raw
// netfmt, as a JSON envelope, or as a batch item keys identically — that
// agreement is what turns per-replica LRUs into a fleet-wide cache.
func TestKeyerAgreesAcrossWireShapes(t *testing.T) {
	k := NewKeyer(Config{})
	raw := k.SolveKey("text/plain", url.Values{}, []byte(sampleNet))
	env := k.SolveKey("application/json", nil, []byte(fmt.Sprintf(`{"net": %q}`, sampleNet)))
	if raw == "" || raw != env {
		t.Fatalf("raw-text key %q != envelope key %q for the same net", raw, env)
	}

	items, err := k.SplitBatch([]byte(fmt.Sprintf(`{"nets": [{"net": %q}]}`, sampleNet)))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Key != raw {
		t.Fatalf("batch item key %q != solve key %q", items[0].Key, raw)
	}

	// A second Keyer with the same config agrees (stateless, derived
	// purely from content), and the key is stable across calls.
	if again := NewKeyer(Config{}).SolveKey("text/plain", url.Values{}, []byte(sampleNet)); again != raw {
		t.Fatalf("key not stable across Keyer instances: %q vs %q", again, raw)
	}
}

// TestKeyerSeparatesDistinctProblems: different nets and different
// solver knobs key differently — they must not share a shard's cache
// entry, so they must not be forced onto the same shard either.
func TestKeyerSeparatesDistinctProblems(t *testing.T) {
	k := NewKeyer(Config{})
	base := k.SolveKey("text/plain", url.Values{}, []byte(sampleNet))

	// A structurally different net (scaled sink cap) keys differently.
	variant := strings.Replace(sampleNet, "cap=2.5e-14", "cap=3.5e-14", 1)
	if got := k.SolveKey("text/plain", url.Values{}, []byte(variant)); got == base {
		t.Fatal("distinct nets share an affinity key")
	}

	// A different segmenting length keys differently (segmenting
	// deterministically reshapes the worked tree).
	seglen := k.SolveKey("application/json", nil, []byte(fmt.Sprintf(`{"net": %q, "options": {"seglen": 1e-3}}`, sampleNet)))
	if seglen == base {
		t.Fatal("different seglen shares an affinity key")
	}

	// Query knobs that change the effective budget key differently too
	// (mirroring the replica's budget-class cache keying).
	q := url.Values{}
	q.Set("max_cands", "7")
	if got := k.SolveKey("text/plain", q, []byte(sampleNet)); got == base {
		t.Fatal("different max_cands shares an affinity key")
	}
}

// TestKeyerFallbackOnUndecodable: undecodable bodies still key
// deterministically (the replica owns the 400), and the two decode
// families cannot collide on identical bytes.
func TestKeyerFallbackOnUndecodable(t *testing.T) {
	k := NewKeyer(Config{})
	junk := []byte("this is not a net\n")
	a := k.SolveKey("text/plain", url.Values{}, junk)
	b := k.SolveKey("text/plain", url.Values{}, junk)
	if a == "" || a != b {
		t.Fatalf("undecodable body key unstable: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, "raw:") {
		t.Fatalf("undecodable body key %q does not use the raw fallback", a)
	}
	if j := k.SolveKey("application/json", nil, junk); j == a {
		t.Fatal("json and text families collide on identical undecodable bytes")
	}

	// A malformed item inside a well-formed batch still splits out with
	// a raw key — partial-failure semantics survive the router.
	items, err := k.SplitBatch([]byte(fmt.Sprintf(`{"nets": [{"net": %q}, {"bogus": 1}]}`, sampleNet)))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("split %d items, want 2", len(items))
	}
	if !strings.HasPrefix(items[1].Key, "raw:json:") {
		t.Fatalf("malformed item key %q, want raw:json: fallback", items[1].Key)
	}

	// Unsplittable top-level shapes are the router's cue to forward the
	// whole body to one replica for the authoritative rejection.
	for _, bad := range []string{`{"nets": []}`, `{"nets": "x"}`, `{"bogus": []}`, `[1,2]`, `not json`} {
		if _, err := k.SplitBatch([]byte(bad)); err == nil {
			t.Errorf("SplitBatch(%q) did not reject", bad)
		}
	}
}

// TestKeyerKeysPinned pins the affinity (and therefore cache) key of a
// fixed set of raw-netfmt and JSON bodies to recorded values. A key that
// moves strands every cached answer and snapshot under the old one and
// reshuffles the fleet's shards, so a change to the decoder or the key
// derivation must leave these bytes alone (or re-record them on purpose).
func TestKeyerKeysPinned(t *testing.T) {
	const (
		ladder   = "f769a74dff48133c0b4f4898b4281ca21ed38765b7f569683122f76bf64423e8"
		halfMM   = "/seglen:3f40624dd2f1a9fc"
		optsBody = `"options": {"timeout_ms": 900, "max_cands": 64, "lambda": 0.6, "seglen": 1e-3}, "problem": {"objective": "max-slack", "k": 3}`
	)
	k := NewKeyer(Config{})
	for _, tc := range []struct {
		ct, query, body, want string
	}{
		{"text/plain", "", sampleNet, ladder + halfMM},
		{"text/plain", "max_cands=7", sampleNet,
			"20954b954cf144a2a5a6c439edeb898661633e46681adb5132a9bef041b570df" + halfMM},
		{"text/plain", "timeout_ms=900&max_cands=64", sampleNet,
			"58dff46409792e3cc0d9a0b6fad6b1d0163ad2525f5763e4881e3df551dce9ef" + halfMM},
		{"application/json", "", fmt.Sprintf(`{"net": %q}`, sampleNet), ladder + halfMM},
		{"application/json", "", fmt.Sprintf(`{"v": 2, "net": %q}`, sampleNet), ladder + halfMM},
		{"application/json", "", fmt.Sprintf(`{"v": 2, "net": %q, %s}`, sampleNet, optsBody),
			"7b82bcdf7d86da5adaf5ce5378167e011809e805661104c3bda6a4fba2b6ca49/seglen:3f50624dd2f1a9fc"},
		{"application/json", "", fmt.Sprintf(`{"v": 2, "net": %q, "options": {"seglen": 0}}`, sampleNet), ladder + "/seglen:0"},
		{"application/json", "", fmt.Sprintf(`{"v": 2, "net": %q, "options": {"lambda": 0.5, "rise": 0.3e-9, "vdd": 1.5, "bufnm": 0.7}}`, sampleNet),
			"f41761e3e74d894906f1cb01d7d2562b2dba0a9d1c6145c8dbce1865cd931bb6" + halfMM},
		{"application/json", "", fmt.Sprintf(`{"net": %q, "problem": {"objective": "max-slack-noise"}}`, sampleNet),
			"a85e3ecbe4834b133593a81b851136bef5716e2f4a019d2191e2f7bc7d9130c2" + halfMM},
		{"application/json", "", fmt.Sprintf(`{"net": %q, "problem": {"objective": "min-buffers-noise"}}`, sampleNet),
			"bd97672d01f7e4da35f9dc6ac808ec14615c48a1e7dbb6dec08f897c142e91bc" + halfMM},
	} {
		q, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.SolveKey(tc.ct, q, []byte(tc.body)); got != tc.want {
			t.Errorf("%s ?%s %.60q...: key %q, want %q", tc.ct, tc.query, tc.body, got, tc.want)
		}
	}
}
