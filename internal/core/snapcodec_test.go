package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"buffopt/internal/guard"
)

// solvedExact returns a handful of exact results keyed the way the cache
// would key them.
func solvedExact(t *testing.T, n int) (keys []string, results []*SolveResult) {
	t.Helper()
	nets, lib, p := diffCorpus(t, n)
	for _, tr := range nets {
		res, err := Solve(context.Background(), tr, lib, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tier != TierExact {
			t.Fatalf("corpus net did not solve exactly: tier %v", res.Tier)
		}
		prob := Problem{Tree: tr, Library: lib, Params: p, Objective: MinBuffersNoise}
		keys = append(keys, SolveCacheKey(prob, Options{}))
		results = append(results, res)
	}
	return keys, results
}

func TestSolveResultCodecRoundTrip(t *testing.T) {
	keys, results := solvedExact(t, 5)
	for i, res := range results {
		enc, err := EncodeSolveResult(keys[i], res)
		if err != nil {
			t.Fatalf("net %d: encode: %v", i, err)
		}
		got, err := DecodeSolveResult(keys[i], enc)
		if err != nil {
			t.Fatalf("net %d: decode: %v", i, err)
		}
		// Byte-identity via the same comparator the differential suite
		// uses: slack bits, cost, placements, widths.
		if want, have := resultJSON(t, res.Result), resultJSON(t, got.Result); !bytes.Equal(want, have) {
			t.Fatalf("net %d: result drifted through the codec:\nwant %s\nhave %s", i, want, have)
		}
		if got.Tier != TierExact || got.Degraded || len(got.TierErrors) != 0 || got.Cached || got.Coalesced {
			t.Fatalf("net %d: decoded metadata %+v not pristine", i, got)
		}
		if err := got.Solution.Tree.Validate(); err != nil {
			t.Fatalf("net %d: decoded tree invalid: %v", i, err)
		}
		// Deterministic encoding: the same result encodes to the same
		// bytes every time (maps are sorted).
		enc2, _ := EncodeSolveResult(keys[i], res)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("net %d: encoding is not deterministic", i)
		}
	}
}

func TestSolveResultCodecRefusesKeyMismatch(t *testing.T) {
	keys, results := solvedExact(t, 2)
	enc, err := EncodeSolveResult(keys[0], results[0])
	if err != nil {
		t.Fatal(err)
	}
	// Stored under a different slot (a stale or transplanted snapshot
	// entry): the embedded key disagrees and the decode must fail.
	if _, err := DecodeSolveResult(keys[1], enc); err == nil {
		t.Fatal("decode under a mismatched key accepted")
	}
	if _, err := DecodeSolveResult(keys[0], enc); err != nil {
		t.Fatalf("decode under the right key failed: %v", err)
	}
}

func TestSolveResultCodecRefusesDegraded(t *testing.T) {
	keys, results := solvedExact(t, 1)
	res := results[0]

	for name, mutate := range map[string]func(*SolveResult) *SolveResult{
		"nil":        func(r *SolveResult) *SolveResult { return nil },
		"no-result":  func(r *SolveResult) *SolveResult { return &SolveResult{Tier: TierExact} },
		"degraded":   func(r *SolveResult) *SolveResult { c := *r; c.Degraded = true; return &c },
		"wrong-tier": func(r *SolveResult) *SolveResult { c := *r; c.Tier = TierGreedy; return &c },
		"tier-errors": func(r *SolveResult) *SolveResult {
			c := *r
			c.TierErrors = []*TierError{{Tier: TierExact, Elapsed: time.Millisecond, Err: guard.ErrBudgetExceeded}}
			return &c
		},
	} {
		if _, err := EncodeSolveResult(keys[0], mutate(res)); !errors.Is(err, ErrNotSnapshottable) {
			t.Fatalf("%s: encode error %v, want ErrNotSnapshottable", name, err)
		}
	}
}

func TestSolveResultCodecRejectsCorruption(t *testing.T) {
	keys, results := solvedExact(t, 1)
	enc, err := EncodeSolveResult(keys[0], results[0])
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(enc); n += 3 {
		if _, err := DecodeSolveResult(keys[0], enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := DecodeSolveResult(keys[0], append(append([]byte(nil), enc...), 1)); err == nil {
		t.Fatal("trailing byte accepted")
	}

	// A buffer's inverting flag is one byte, 0 or 1. Any other value is
	// corruption — a peer-fill payload carries no checksum — and must
	// fail the decode rather than come back as a non-inverting buffer.
	keys, results = solvedExact(t, 5)
	for i, res := range results {
		if len(res.Buffers) == 0 {
			continue
		}
		enc, err := EncodeSolveResult(keys[i], res)
		if err != nil {
			t.Fatal(err)
		}
		// The first buffer record (lowest node ID) follows the header,
		// the tree and the buffer count: its ID, name and four floats,
		// then the flag.
		first := res.Buffers[sortedIDs(res.Buffers)[0]]
		at := len(resultMagic) + 4 + len(keys[i]) + 1 + 8 + 8 +
			4 + len(res.Tree.AppendBinary(nil)) + 4 +
			4 + 4 + len(first.Name) + 4*8
		want := byte(0)
		if first.Inverting {
			want = 1
		}
		if enc[at] != want {
			t.Fatalf("net %d: byte %d is %d, not the inverting flag %d", i, at, enc[at], want)
		}
		for _, bad := range []byte{2, 0xff} {
			corrupt := append([]byte(nil), enc...)
			corrupt[at] = bad
			if _, err := DecodeSolveResult(keys[i], corrupt); err == nil {
				t.Fatalf("net %d: inverting flag %#x accepted", i, bad)
			}
		}
		return
	}
	t.Fatal("no corpus result places a buffer")
}
