package core

import (
	"errors"
	"fmt"
	"sort"

	"buffopt/internal/buffers"
	"buffopt/internal/enc"
	"buffopt/internal/rctree"
)

// Binary codec for SolveResult, the value format of cache snapshots and
// peer-fill peeks (DESIGN.md §15). Only clean exact results are encoded:
// TierErrors carry arbitrary wrapped error chains that cannot round-trip
// faithfully, and a degraded result is tied to the budget that produced
// it — persisting either would let a restart or a peer hand out a result
// the local solver would not have produced. Exact results are the bulk of
// a warm cache, so the restriction costs little and buys byte-exactness:
// a decoded result re-analyzes (noise.Analyze, elmore.Analyze) to the
// same response bytes the original solve produced.
//
// The cache key is embedded in the encoding and re-checked on decode.
// Keys are content-addressed (Problem.CanonicalHash plus option hashes),
// so a key mismatch means the bytes answer a different problem than the
// slot claims — a stale or transplanted entry — and the decode fails
// rather than poison the cache.

// resultMagic versions the value encoding independently of the snapshot
// envelope.
const resultMagic = "bsr1"

// ErrNotSnapshottable marks results the codec refuses to persist:
// degraded results, results carrying tier errors, and results with no
// solution payload. Callers treat it as "skip this entry", not a fault.
var ErrNotSnapshottable = errors.New("core: result not snapshottable")

// EncodeSolveResult serializes r for storage under the cache key.
func EncodeSolveResult(key string, r *SolveResult) ([]byte, error) {
	if r == nil || r.Result == nil || r.Solution == nil || r.Solution.Tree == nil {
		return nil, fmt.Errorf("%w: missing solution payload", ErrNotSnapshottable)
	}
	if r.Tier != TierExact || r.Degraded || len(r.TierErrors) > 0 {
		return nil, fmt.Errorf("%w: tier %v, degraded=%v, %d tier errors",
			ErrNotSnapshottable, r.Tier, r.Degraded, len(r.TierErrors))
	}
	buf := make([]byte, 0, 256)
	buf = append(buf, resultMagic...)
	buf = enc.Field(buf, key)
	buf = append(buf, byte(r.Tier))
	buf = enc.F64(buf, r.Slack)
	buf = enc.U64(buf, uint64(int64(r.Cost)))
	buf = enc.Field(buf, r.Solution.Tree.AppendBinary(nil))

	// Map iteration order is random; sort by node ID so identical results
	// encode to identical bytes (snapshots of the same cache state are
	// reproducible).
	bufIDs := sortedIDs(r.Solution.Buffers)
	buf = enc.U32(buf, uint32(len(bufIDs)))
	for _, id := range bufIDs {
		b := r.Solution.Buffers[id]
		buf = enc.U32(buf, uint32(int32(id)))
		buf = enc.Field(buf, b.Name)
		for _, f := range [...]float64{b.Cin, b.R, b.T, b.NoiseMargin} {
			buf = enc.F64(buf, f)
		}
		buf = enc.Bool(buf, b.Inverting)
		buf = enc.U64(buf, uint64(int64(b.Weight)))
	}

	widthIDs := sortedIDs(r.Solution.Widths)
	buf = enc.U32(buf, uint32(len(widthIDs)))
	for _, id := range widthIDs {
		buf = enc.U32(buf, uint32(int32(id)))
		buf = enc.F64(buf, r.Solution.Widths[id])
	}
	return buf, nil
}

// DecodeSolveResult parses data encoded by EncodeSolveResult and verifies
// it against the cache key it is stored under: the embedded key must
// match, the tree must validate, every buffer/width node ID must name a
// tree node, and every flag byte must be 0 or 1. Any mismatch is an
// error — a snapshot or peek that fails here is dropped whole rather
// than served. The decoded result carries fresh provenance
// (Cached/Coalesced cleared; the caller sets them).
func DecodeSolveResult(key string, data []byte) (*SolveResult, error) {
	c := enc.NewReader(data)
	if string(c.Bytes(len(resultMagic))) != resultMagic {
		return nil, fmt.Errorf("core: decode result: bad magic")
	}
	gotKey := string(c.Field())
	if c.Err() == nil && gotKey != key {
		return nil, fmt.Errorf("core: decode result: stored under key %q but encodes key %q", key, gotKey)
	}
	tier := Tier(c.Byte())
	slack := c.F64()
	cost := int(int64(c.U64()))
	treeBytes := c.Field()
	if c.Err() != nil {
		return nil, fmt.Errorf("core: decode result: %w", c.Err())
	}
	if tier != TierExact {
		return nil, fmt.Errorf("core: decode result: tier %d, only exact results are persisted", tier)
	}
	tree, err := rctree.DecodeBinary(treeBytes)
	if err != nil {
		return nil, fmt.Errorf("core: decode result: %w", err)
	}

	nbuf := int(c.U32())
	if c.Err() == nil && nbuf > c.Len()/45 {
		return nil, fmt.Errorf("core: decode result: buffer count %d exceeds input size", nbuf)
	}
	var bufs map[rctree.NodeID]buffers.Buffer
	if nbuf > 0 && c.Err() == nil {
		bufs = make(map[rctree.NodeID]buffers.Buffer, nbuf)
	}
	for i := 0; i < nbuf && c.Err() == nil; i++ {
		id := rctree.NodeID(int32(c.U32()))
		var b buffers.Buffer
		b.Name = string(c.Field())
		b.Cin, b.R, b.T, b.NoiseMargin = c.F64(), c.F64(), c.F64(), c.F64()
		b.Inverting = c.Bool()
		b.Weight = int(int64(c.U64()))
		if c.Err() != nil {
			break
		}
		if id < 0 || int(id) >= tree.Len() {
			return nil, fmt.Errorf("core: decode result: buffer at node %d, tree has %d nodes", id, tree.Len())
		}
		bufs[id] = b
	}

	nwid := int(c.U32())
	if c.Err() == nil && nwid > c.Len()/12 {
		return nil, fmt.Errorf("core: decode result: width count %d exceeds input size", nwid)
	}
	var widths map[rctree.NodeID]float64
	if nwid > 0 && c.Err() == nil {
		widths = make(map[rctree.NodeID]float64, nwid)
	}
	for i := 0; i < nwid && c.Err() == nil; i++ {
		id := rctree.NodeID(int32(c.U32()))
		w := c.F64()
		if c.Err() != nil {
			break
		}
		if id < 0 || int(id) >= tree.Len() {
			return nil, fmt.Errorf("core: decode result: width at node %d, tree has %d nodes", id, tree.Len())
		}
		widths[id] = w
	}
	if c.Err() != nil {
		return nil, fmt.Errorf("core: decode result: %w", c.Err())
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("core: decode result: %d trailing bytes", c.Len())
	}
	return &SolveResult{
		Result: &Result{
			Solution: &Solution{Tree: tree, Buffers: bufs, Widths: widths},
			Slack:    slack,
			Cost:     cost,
		},
		Tier: tier,
	}, nil
}

// sortedIDs returns the map's keys in ascending order.
func sortedIDs[V any](m map[rctree.NodeID]V) []rctree.NodeID {
	ids := make([]rctree.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
