package rctree

import (
	"crypto/sha256"

	"buffopt/internal/enc"
)

// SubtreeHash is the canonical content identity of one subtree: two nodes
// carry the same hash iff the dynamic program computes the same candidate
// list for both. It is the subtree-granular analogue of
// core.Problem.CanonicalHash and follows the same inclusion rules:
// included are each node's kind, buffer feasibility, parent-wire
// parasitics (R, C, length, and the explicit aggressor list — nil and
// empty are distinct, because nil selects the noise estimation mode), and
// sink properties (cap, RAT, noise margin), plus the children's hashes in
// sibling order. Excluded, deliberately: node names, IDs, and X/Y
// coordinates (reports only — a renumbered subtree is the same subtree).
// Sibling order is preserved, not sorted, for the same reason the problem
// hash preserves it: merge order can steer tie-breaking among equal-slack
// candidates.
//
// The parent wire belongs to the hash because it belongs to the DP value:
// a node's finished candidate list is charged with its parent wire before
// the parent consumes it, so the list is a pure function of exactly this
// hash (plus the solve options a memo key appends on top).
type SubtreeHash [32]byte

// subtreeHashVersion prefixes every subtree hash; bump it whenever the
// serialization below changes, so memo entries from an older binary can
// never alias a new subtree.
const subtreeHashVersion = "buffopt.subtree.v1"

// AppendNodeKey appends node v's identity bytes: everything of v the
// dynamic program reads besides its children's content — kind, buffer
// feasibility, parent-wire R, C and length, the aggressor list behind a
// nil-vs-empty bit, sink cap, RAT and noise margin, and the child count.
// It is the one copy of the node field list both content identities
// hash: SubtreeHash (hashNode) and core.Problem.CanonicalHash, which
// writes it per node of a preorder walk.
func (t *Tree) AppendNodeKey(b []byte, v NodeID) []byte {
	n := &t.nodes[v]
	b = append(b, byte(n.Kind))
	b = enc.Bool(b, n.BufferOK)
	b = enc.F64(b, n.Wire.R)
	b = enc.F64(b, n.Wire.C)
	b = enc.F64(b, n.Wire.Length)
	b = enc.Bool(b, n.Wire.Aggressors != nil)
	b = enc.U64(b, uint64(len(n.Wire.Aggressors)))
	for _, a := range n.Wire.Aggressors {
		b = enc.F64(b, a.Ratio)
		b = enc.F64(b, a.Slope)
	}
	b = enc.F64(b, n.Cap)
	b = enc.F64(b, n.RAT)
	b = enc.F64(b, n.NoiseMargin)
	return enc.U64(b, uint64(len(n.Children)))
}

// hashNode computes node v's subtree hash from its own key and its
// children's already-current hashes in h.
func (t *Tree) hashNode(h []SubtreeHash, v NodeID) SubtreeHash {
	var a [256]byte
	b := t.AppendNodeKey(append(a[:0], subtreeHashVersion...), v)
	for _, c := range t.nodes[v].Children {
		b = append(b, h[c][:]...)
	}
	return sha256.Sum256(b)
}

// SubtreeHashes computes the hash of every subtree in one bottom-up pass:
// the returned slice is indexed by NodeID. Cost is O(n) hash operations;
// incremental edits keep the slice current with RehashPath/RehashSubtree
// instead of recomputing it.
func (t *Tree) SubtreeHashes() []SubtreeHash {
	h := make([]SubtreeHash, len(t.nodes))
	for _, v := range t.Postorder() {
		h[v] = t.hashNode(h, v)
	}
	return h
}

// growHashes extends h to cover n nodes (topology edits append nodes).
func growHashes(h []SubtreeHash, n int) []SubtreeHash {
	for len(h) < n {
		h = append(h, SubtreeHash{})
	}
	return h[:n]
}

// RehashPath refreshes the hashes of v and every ancestor up to the root,
// assuming all hashes strictly below v are current — the exact
// invalidation footprint of an in-place edit to node v's own fields
// (sink cap/RAT, wire parasitics). Returns the possibly-regrown slice.
func (t *Tree) RehashPath(h []SubtreeHash, v NodeID) []SubtreeHash {
	h = growHashes(h, len(t.nodes))
	for v != None {
		h[v] = t.hashNode(h, v)
		v = t.nodes[v].Parent
	}
	return h
}

// RehashSubtree refreshes every hash inside the subtree rooted at v,
// bottom-up, then continues up v's ancestor path — the invalidation
// footprint of a structural edit (graft) that introduced or rewired nodes
// below v. Returns the possibly-regrown slice.
func (t *Tree) RehashSubtree(h []SubtreeHash, v NodeID) []SubtreeHash {
	h = growHashes(h, len(t.nodes))
	type frame struct {
		id   NodeID
		next int
	}
	stack := []frame{{id: v}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ch := t.nodes[f.id].Children
		if f.next < len(ch) {
			f.next++
			stack = append(stack, frame{id: ch[f.next-1]})
			continue
		}
		h[f.id] = t.hashNode(h, f.id)
		stack = stack[:len(stack)-1]
	}
	return t.RehashPath(h, t.nodes[v].Parent)
}
