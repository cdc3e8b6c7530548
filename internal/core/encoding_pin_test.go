package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"buffopt/internal/cache"
	"buffopt/internal/netgen"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

// pinCorpus is the golden pins' input: the 40 netgen seed-1 nets,
// segmented at 0.5 mm, plus the first of them again at 0.05 mm (a tree
// whose encodings run past a 4 KiB hashing chunk), with every fifth wire given an explicit two-entry
// aggressor list and every seventh an explicit empty one, so the pins
// cover the lumped (nil) and explicit noise models and the nil-vs-empty
// distinction every encoding keeps.
func pinCorpus(t *testing.T) ([]*rctree.Tree, *netgen.Suite) {
	t.Helper()
	suite, err := netgen.Generate(netgen.Config{Seed: 1, NumNets: 40})
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*rctree.Tree, len(suite.Nets)+1)
	for i := range nets {
		tr, seglen := suite.Nets[i%len(suite.Nets)], 0.5e-3
		if i == len(suite.Nets) {
			seglen = 0.05e-3
		}
		seg := tr.Clone()
		if _, err := segment.ByLength(seg, seglen); err != nil {
			t.Fatal(err)
		}
		for v := 1; v < seg.Len(); v++ {
			w := &seg.Node(rctree.NodeID(v)).Wire
			switch {
			case v%5 == 0:
				w.Aggressors = []rctree.Coupling{
					{Ratio: 0.3, Slope: 7.2e9 + float64(v)},
					{Ratio: 0.15, Slope: 3.6e9},
				}
			case v%7 == 0:
				w.Aggressors = []rctree.Coupling{}
			}
		}
		nets[i] = seg
	}
	return nets, suite
}

// pinDigest folds a sequence of values, each length-prefixed, into one
// hex SHA-256.
type pinDigest struct{ buf []byte }

func (d *pinDigest) add(b []byte) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(len(b)))
	d.buf = append(d.buf, b...)
}

func (d *pinDigest) sum() string {
	s := sha256.Sum256(d.buf)
	return hex.EncodeToString(s[:])
}

// TestEncodingsPinned pins every canonical hash and binary encoding the
// system persists or keys on — problem hashes, cache keys, subtree
// hashes, memo-key suffixes, and the rct1, bsr1 and snapshot bytes — to
// digests recorded over pinCorpus. A digest that moves strands cached
// answers, snapshot files, peer fills or memo entries under their old
// bytes, so a change to any encoding must leave these alone (or bump the
// encoding's version and re-record them on purpose).
func TestEncodingsPinned(t *testing.T) {
	nets, suite := pinCorpus(t)
	lib, params := suite.Library, suite.Tech.Noise
	bound := 3
	sizing := Options{SafePruning: true, Sizing: &Sizing{Widths: []float64{1, 2, 4}, Fringe: 0.4}}
	sized := Options{Sizing: &Sizing{Widths: []float64{1, 2}}}

	var problems, optKeys, solveKeys, subtrees, trees, results pinDigest
	var entries []cache.Entry[*SolveResult]
	nwidths, ninv := 0, 0
	for i, tr := range nets {
		for _, p := range []Problem{
			{Tree: tr, Library: lib, Params: params, Objective: MaxSlack},
			{Tree: tr, Library: lib, Params: params, Objective: MaxSlack, MaxBuffers: &bound},
			{Tree: tr, Library: lib, Params: params, Objective: MaxSlackNoise},
			{Tree: tr, Library: lib, Params: params, Objective: MaxSlackNoise, MaxBuffers: &bound},
			{Tree: tr, Library: lib, Params: params, Objective: MinBuffersNoise},
		} {
			problems.add([]byte(p.CanonicalHash()))
			optKeys.add([]byte(OptimizeCacheKey(p, Options{})))
			optKeys.add([]byte(OptimizeCacheKey(p, sizing)))
		}
		prob := Problem{Tree: tr, Library: lib, Params: params, Objective: MinBuffersNoise}
		key := SolveCacheKey(prob, Options{})
		solveKeys.add([]byte(key))
		for _, h := range tr.SubtreeHashes() {
			subtrees.add(h[:])
		}
		trees.add(tr.AppendBinary(nil))

		res, err := Solve(context.Background(), tr, lib, params, Options{})
		if err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
		b, err := EncodeSolveResult(key, res)
		if err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
		results.add(b)
		entries = append(entries, cache.Entry[*SolveResult]{Key: key, Val: res})
		for _, bb := range res.Buffers {
			if bb.Inverting {
				ninv++
			}
		}

		// The smallest nets are also solved with wire sizing, so the pins
		// cover bsr1's width records.
		if tr.Len() <= 12 {
			key := SolveCacheKey(prob, sized)
			solveKeys.add([]byte(key))
			res, err := Solve(context.Background(), tr, lib, params, sized)
			if err != nil {
				t.Fatalf("net %d sized: %v", i, err)
			}
			b, err := EncodeSolveResult(key, res)
			if err != nil {
				t.Fatalf("net %d sized: %v", i, err)
			}
			results.add(b)
			entries = append(entries, cache.Entry[*SolveResult]{Key: key, Val: res})
			nwidths += len(res.Widths)
		}
	}
	if nwidths == 0 || ninv == 0 {
		t.Fatalf("the corpus places %d inverting buffers and sizes %d wires; the pins need both", ninv, nwidths)
	}
	var snapshot pinDigest
	data, skipped := cache.EncodeSnapshot(entries, EncodeSolveResult)
	if skipped != 0 {
		t.Fatalf("%d snapshot entries skipped", skipped)
	}
	snapshot.add(data)

	var suffixes pinDigest
	for _, o := range []vgOptions{
		{},
		{noise: true, params: params},
		{noise: true, params: noise.Params{CouplingRatio: 0.45, Slope: 1.1e10}, countIndexed: true, maxBuffers: 4},
		{noise: true, params: params, safePruning: true, widths: []float64{1, 2, 4}, fringe: 0.4},
	} {
		s := memoKeySuffix(o, lib)
		suffixes.add(s[:])
	}

	for _, c := range []struct{ name, got, want string }{
		{"CanonicalHash", problems.sum(), "182d3728e4604014cfb15ccf2da33878a5e97d3676e160e5ea7f59e98bf9a94c"},
		{"OptimizeCacheKey", optKeys.sum(), "ce68ecfebc7366488c1d6fc1996966c10f4518d5dc55c9f6f72a85e1b9429508"},
		{"SolveCacheKey", solveKeys.sum(), "43178cd9d522a04aa2e6ece4d6231ef7bb79c00ce7cf29d08c0b18d855ac1de8"},
		{"SubtreeHashes", subtrees.sum(), "b2307144a06b444e3b0dbca1bb97bcd288e707da270f27a7c98e6f3fcc08d3b8"},
		{"memoKeySuffix", suffixes.sum(), "a552a225229df479dbdc5e186d3a3330f2baeaaabb9ce0bdb5ee47386cdd42de"},
		{"rct1", trees.sum(), "9a51073af5a2aca4b0757a193a53a99366b8b508fb38b91fe8cc145d5876bca4"},
		{"bsr1", results.sum(), "1e59009900be0b2dd8eb1107c79300986cedd998f34dbd01dada18f2324746af"},
		{"snapshot", snapshot.sum(), "e8b1961b5bbb14e8cc6a985fb2e9b0c4d3bda44461d315e3484b7ecf3180bf5e"},
	} {
		if c.got != c.want {
			t.Errorf("%s digest %s, want %s", c.name, c.got, c.want)
		}
	}
}
