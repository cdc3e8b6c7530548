package rctree

import (
	"fmt"

	"buffopt/internal/enc"
)

// Binary codec for Tree, used by the cache-snapshot and peer-fill layers
// (core.EncodeSolveResult). The encoding is bit-exact: every float crosses
// the wire as its IEEE-754 bit pattern, node order and child order are
// preserved verbatim, and nil-vs-empty aggressor slices survive the round
// trip — so a tree decoded from a snapshot re-analyzes to byte-identical
// responses. Node IDs are not serialized; the ID==index invariant makes
// them implicit, and Decode re-derives and Validates them.

// treeMagic guards against feeding arbitrary bytes to the tree decoder;
// the outer snapshot/result layers carry their own magic and checksum.
const treeMagic = "rct1"

// minEncodedNode is a lower bound on one node's encoding: kind, name
// length, five node floats, BufferOK, three wire floats, aggressor count,
// parent, child count. Decode uses it to bound the node-count field by
// the bytes actually present before allocating.
const minEncodedNode = 1 + 4 + 5*8 + 1 + 3*8 + 4 + 4 + 4

// AppendBinary appends t's binary encoding to buf and returns the
// extended slice.
func (t *Tree) AppendBinary(buf []byte) []byte {
	buf = append(buf, treeMagic...)
	buf = enc.F64(buf, t.DriverResistance)
	buf = enc.F64(buf, t.DriverDelay)
	buf = enc.U32(buf, uint32(len(t.nodes)))
	for i := range t.nodes {
		n := &t.nodes[i]
		buf = append(buf, byte(n.Kind))
		buf = enc.Field(buf, n.Name)
		for _, f := range [...]float64{n.X, n.Y, n.Cap, n.RAT, n.NoiseMargin} {
			buf = enc.F64(buf, f)
		}
		buf = enc.Bool(buf, n.BufferOK)
		for _, f := range [...]float64{n.Wire.R, n.Wire.C, n.Wire.Length} {
			buf = enc.F64(buf, f)
		}
		// Nil-vs-empty is semantic (nil = lumped noise model, empty =
		// explicit model with no aggressors), so it gets its own bit.
		buf = enc.Bool(buf, n.Wire.Aggressors != nil)
		buf = enc.U32(buf, uint32(len(n.Wire.Aggressors)))
		for _, a := range n.Wire.Aggressors {
			buf = enc.F64(buf, a.Ratio)
			buf = enc.F64(buf, a.Slope)
		}
		buf = enc.U32(buf, uint32(int32(n.Parent)))
		buf = enc.U32(buf, uint32(len(n.Children)))
		for _, c := range n.Children {
			buf = enc.U32(buf, uint32(int32(c)))
		}
	}
	return buf
}

// MarshalBinary returns t's binary encoding.
func (t *Tree) MarshalBinary() ([]byte, error) {
	return t.AppendBinary(nil), nil
}

// DecodeBinary parses a tree encoded by AppendBinary, consuming exactly
// len(data) bytes, and validates the result: any truncation, trailing
// garbage, out-of-range reference, or structural corruption is an error,
// never a panic and never a malformed tree.
func DecodeBinary(data []byte) (*Tree, error) {
	d := enc.NewReader(data)
	if string(d.Bytes(len(treeMagic))) != treeMagic {
		return nil, fmt.Errorf("rctree: decode: bad magic")
	}
	t := &Tree{
		DriverResistance: d.F64(),
		DriverDelay:      d.F64(),
	}
	count := int(d.U32())
	if d.Err() == nil && count > d.Len()/minEncodedNode+1 {
		return nil, fmt.Errorf("rctree: decode: node count %d exceeds input size", count)
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("rctree: decode: %w", d.Err())
	}
	t.nodes = make([]Node, 0, count)
	for i := 0; i < count && d.Err() == nil; i++ {
		n := Node{ID: NodeID(i), Kind: Kind(d.Byte())}
		n.Name = string(d.Field())
		n.X, n.Y = d.F64(), d.F64()
		n.Cap, n.RAT, n.NoiseMargin = d.F64(), d.F64(), d.F64()
		n.BufferOK = d.Bool()
		n.Wire.R, n.Wire.C, n.Wire.Length = d.F64(), d.F64(), d.F64()
		hasAggressors := d.Bool()
		nagg := int(d.U32())
		if d.Err() == nil && nagg > d.Len()/16 {
			return nil, fmt.Errorf("rctree: decode: node %d aggressor count %d exceeds input size", i, nagg)
		}
		if hasAggressors {
			n.Wire.Aggressors = make([]Coupling, 0, nagg)
			for j := 0; j < nagg && d.Err() == nil; j++ {
				n.Wire.Aggressors = append(n.Wire.Aggressors, Coupling{
					Ratio: d.F64(), Slope: d.F64(),
				})
			}
		} else if nagg != 0 && d.Err() == nil {
			return nil, fmt.Errorf("rctree: decode: node %d has %d aggressors but nil marker", i, nagg)
		}
		n.Parent = NodeID(int32(d.U32()))
		nchild := int(d.U32())
		if d.Err() == nil && nchild > d.Len()/4 {
			return nil, fmt.Errorf("rctree: decode: node %d child count %d exceeds input size", i, nchild)
		}
		if nchild > 0 {
			n.Children = make([]NodeID, 0, nchild)
			for j := 0; j < nchild && d.Err() == nil; j++ {
				n.Children = append(n.Children, NodeID(int32(d.U32())))
			}
		}
		t.nodes = append(t.nodes, n)
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("rctree: decode: %w", d.Err())
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("rctree: decode: %d trailing bytes", d.Len())
	}
	// Range-check references before Validate walks them.
	for i := range t.nodes {
		n := &t.nodes[i]
		if i == 0 {
			if n.Parent != None {
				return nil, fmt.Errorf("rctree: decode: source has parent %d", n.Parent)
			}
		} else if !t.valid(n.Parent) {
			return nil, fmt.Errorf("rctree: decode: node %d parent %d out of range", i, n.Parent)
		}
		for _, c := range n.Children {
			if !t.valid(c) {
				return nil, fmt.Errorf("rctree: decode: node %d child %d out of range", i, c)
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("rctree: decode: %w", err)
	}
	return t, nil
}
