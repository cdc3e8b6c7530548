package netfmt

import (
	"bufio"
	"fmt"
	"io"

	"buffopt/internal/rctree"
)

// This file implements a deliberately small subset of SPEF (IEEE 1481),
// the industry parasitics exchange format, so buffopt trees can be
// inspected by standard EDA tooling. One tree maps to one *D_NET with a
// *CONN section (driver + loads), a *CAP section (grounded node
// capacitance, with coupling capacitance folded to ground the way
// estimation mode sees it), and a *RES section (the tree wires). Only
// the writer ships; the tests keep a reader for the shape it produces
// as the round trip's oracle.

// WriteSPEF serializes the tree as a single-net SPEF fragment. Node names
// are net:index; the driver pin is the net name suffixed with :drv, sink
// pins keep their sink names.
func WriteSPEF(w io.Writer, t *rctree.Tree) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("netfmt: refusing to write invalid tree: %w", err)
	}
	bw := bufio.NewWriter(w)
	net := t.Node(t.Root()).Name
	if net == "" {
		net = "net"
	}
	order := t.Preorder()
	renum := make(map[rctree.NodeID]int, len(order))
	for i, v := range order {
		renum[v] = i
	}
	name := func(v rctree.NodeID) string {
		n := t.Node(v)
		switch n.Kind {
		case rctree.Source:
			return net + ":drv"
		case rctree.Sink:
			if n.Name != "" {
				return net + ":" + sanitize(n.Name)
			}
		}
		return fmt.Sprintf("%s:%d", net, renum[v])
	}

	fmt.Fprintf(bw, "*SPEF \"IEEE 1481-1998 subset\"\n")
	fmt.Fprintf(bw, "*DESIGN \"%s\"\n", net)
	fmt.Fprintf(bw, "*T_UNIT 1 S\n*C_UNIT 1 F\n*R_UNIT 1 OHM\n\n")
	// Total capacitance: wires plus pins, as selection in Section V uses.
	fmt.Fprintf(bw, "*D_NET %s %.12e\n", net, t.TotalCap())

	fmt.Fprintf(bw, "*CONN\n")
	fmt.Fprintf(bw, "*I %s O *D R=%.12e T=%.12e\n", name(t.Root()), t.DriverResistance, t.DriverDelay)
	for _, v := range order {
		n := t.Node(v)
		if n.Kind == rctree.Sink {
			fmt.Fprintf(bw, "*I %s I *L %.12e *RAT %.12e *NM %.12e\n", name(v), n.Cap, n.RAT, n.NoiseMargin)
		}
	}

	// Grounded capacitance per node: π-halves of incident wires.
	capAt := make(map[rctree.NodeID]float64, len(order))
	for _, v := range order {
		n := t.Node(v)
		if v != t.Root() {
			capAt[v] += n.Wire.C / 2
			capAt[n.Parent] += n.Wire.C / 2
		}
	}
	fmt.Fprintf(bw, "*CAP\n")
	i := 1
	for _, v := range order {
		if capAt[v] == 0 {
			continue
		}
		fmt.Fprintf(bw, "%d %s %.12e\n", i, name(v), capAt[v])
		i++
	}

	fmt.Fprintf(bw, "*RES\n")
	i = 1
	for _, v := range order {
		if v == t.Root() {
			continue
		}
		fmt.Fprintf(bw, "%d %s %s %.12e *LEN %.12e\n", i, name(t.Node(v).Parent), name(v), t.Node(v).Wire.R, t.Node(v).Wire.Length)
		i++
	}
	fmt.Fprintf(bw, "*END\n")
	return bw.Flush()
}
