package enginetest

import (
	"context"
	"math/rand"
	"testing"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/segment"
	"buffopt/internal/testutil"
)

// FuzzEngineEquivalence drives the cross-engine contract from arbitrary
// coordinates: a seeded random tree, a random sub-library of the
// Section V repertoire (mask-selected, so all-inverter and single-type
// corners appear), and an optional count bound. Every exact row of
// core.EngineTable must fail together with the reference (classic merge,
// serial walk) or succeed together with bit-identical objective values. The checked-in corpus under
// testdata/fuzz/FuzzEngineEquivalence seeds the interesting corners;
// `go test -fuzz=FuzzEngineEquivalence ./internal/core/enginetest` digs
// for new ones.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(0x7ff), int8(-1), uint8(3))    // full library, unbounded
	f.Add(int64(2), uint16(0x001), int8(4), uint8(1))     // single type, k=4, two-pin-ish
	f.Add(int64(3), uint16(0x0aa), int8(-1), uint8(5))    // alternating mask, wide
	f.Add(int64(4), uint16(0x7c0), int8(0), uint8(2))     // inverter-heavy tail, k=0
	f.Add(int64(99), uint16(0x003), int8(7), uint8(4))    // two strong types, k=7
	f.Add(int64(1234), uint16(0x400), int8(-1), uint8(2)) // one inverter only: infeasible parity

	full := buffers.DefaultLibrary(0.8)
	f.Fuzz(func(t *testing.T, seed int64, mask uint16, kRaw int8, sinks uint8) {
		rng := rand.New(rand.NewSource(seed))
		tr := testutil.RandomTree(rng, testutil.TreeOptions{
			MaxInternal: 5, MaxSinks: 1 + int(sinks%6),
			MarginLo: 3, MarginHi: 8, BufferSites: true,
		})
		if _, err := segment.ByCount(tr, 2); err != nil {
			t.Fatal(err)
		}
		var lib buffers.Library
		for i, b := range full.Buffers {
			if mask&(1<<uint(i)) != 0 {
				lib.Buffers = append(lib.Buffers, b)
			}
		}
		if len(lib.Buffers) == 0 {
			lib = *full
		}
		prob := core.Problem{Tree: tr, Library: &lib, Objective: core.MaxSlack}
		if kRaw >= 0 {
			k := int(kRaw) % 10
			prob.MaxBuffers = &k
		}
		ref, refErr := exactRows[0].Run(context.Background(), prob, core.Options{})
		for _, row := range exactRows[1:] {
			got, err := row.Run(context.Background(), prob, core.Options{})
			if (refErr == nil) != (err == nil) {
				t.Fatalf("%s disagrees on feasibility: reference err = %v, %s err = %v", row.Name, refErr, row.Name, err)
			}
			if refErr != nil {
				continue
			}
			if cmpErr := sameObjective(ref, got); cmpErr != nil {
				t.Fatalf("%s diverged from the reference: %v", row.Name, cmpErr)
			}
		}
	})
}
