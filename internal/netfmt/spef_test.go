package netfmt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"buffopt/internal/elmore"
	"buffopt/internal/netgen"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
)

func spefRoundtrip(t *testing.T, tr *rctree.Tree) *rctree.Tree {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSPEF(&buf, tr); err != nil {
		t.Fatalf("WriteSPEF: %v", err)
	}
	got, err := readSPEF(&buf)
	if err != nil {
		t.Fatalf("readSPEF: %v\n%s", err, buf.String())
	}
	return got
}

func TestSPEFRoundtripSmall(t *testing.T) {
	tr := rctree.New("clk", 150, 40e-12)
	v1, _ := tr.AddInternal(tr.Root(), rctree.Wire{R: 160, C: 400e-15, Length: 2e-3}, true)
	_, _ = tr.AddSink(v1, rctree.Wire{R: 240, C: 600e-15, Length: 3e-3}, "a", 25e-15, 1e-9, 0.8)
	_, _ = tr.AddSink(v1, rctree.Wire{R: 80, C: 200e-15, Length: 1e-3}, "b", 15e-15, 2e-9, 0.75)

	got := spefRoundtrip(t, tr)
	if got.Len() != tr.Len() || got.NumSinks() != 2 {
		t.Fatalf("shape changed: %d nodes, %d sinks", got.Len(), got.NumSinks())
	}
	if got.DriverResistance != 150 || got.DriverDelay != 40e-12 {
		t.Errorf("driver = %g, %g", got.DriverResistance, got.DriverDelay)
	}
	// Electrical equivalence: identical delay and noise analyses.
	relEq := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*(1e-30+math.Max(math.Abs(a), math.Abs(b)))
	}
	p := noise.SectionV()
	if !relEq(noise.Analyze(tr, nil, p).MaxNoise, noise.Analyze(got, nil, p).MaxNoise) {
		t.Errorf("noise changed across SPEF roundtrip")
	}
	if !relEq(elmore.Analyze(tr, nil).MaxDelay, elmore.Analyze(got, nil).MaxDelay) {
		t.Errorf("delay changed across SPEF roundtrip")
	}
	if !relEq(got.TotalCap(), tr.TotalCap()) {
		t.Errorf("total cap %g, want %g", got.TotalCap(), tr.TotalCap())
	}
	// Sink data carried through the *CONN attributes.
	for _, s := range got.Sinks() {
		n := got.Node(s)
		if n.RAT == 0 || n.NoiseMargin == 0 || n.Cap == 0 {
			t.Errorf("sink %s lost attributes: %+v", n.Name, n)
		}
	}
}

func TestSPEFRoundtripGenerated(t *testing.T) {
	s, err := netgen.Generate(netgen.Config{Seed: 6, NumNets: 15})
	if err != nil {
		t.Fatal(err)
	}
	p := noise.SectionV()
	for i, tr := range s.Nets {
		got := spefRoundtrip(t, tr)
		a := elmore.Analyze(tr, nil).MaxDelay
		b := elmore.Analyze(got, nil).MaxDelay
		if math.Abs(a-b) > 1e-9*a {
			t.Errorf("net %d: delay %g → %g", i, a, b)
		}
		na := noise.Analyze(tr, nil, p).MaxNoise
		nb := noise.Analyze(got, nil, p).MaxNoise
		if math.Abs(na-nb) > 1e-9*(1e-30+na) {
			t.Errorf("net %d: noise %g → %g", i, na, nb)
		}
	}
}

func TestSPEFOutputShape(t *testing.T) {
	tr := rctree.New("demo", 100, 0)
	_, _ = tr.AddSink(tr.Root(), rctree.Wire{R: 10, C: 1e-15, Length: 1e-4}, "s", 1e-15, 0, 1)
	var buf bytes.Buffer
	if err := WriteSPEF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"*SPEF", "*D_NET demo", "*CONN", "*CAP", "*RES", "*END", "demo:drv", "demo:s"} {
		if !strings.Contains(out, want) {
			t.Errorf("SPEF missing %q:\n%s", want, out)
		}
	}
}

func TestReadSPEFErrors(t *testing.T) {
	cases := map[string]string{
		"empty":     "",
		"no end":    "*D_NET x 1\n*RES\n1 a b 5 *LEN 1\n",
		"no driver": "*D_NET x 1\n*RES\n1 a b 5 *LEN 1\n*END\n",
		"no res":    "*D_NET x 1\n*CONN\n*I x:drv O *D R=1 T=0\n*END\n",
		"bad res":   "*D_NET x 1\n*CONN\n*I x:drv O *D R=1 T=0\n*RES\n1 x:drv x:s five\n*END\n",
		"bad attr":  "*D_NET x 1\n*CONN\n*I x:drv O *D R=one T=0\n*RES\n1 x:drv x:s 5 *LEN 1\n*END\n",
		"sinkless":  "*D_NET x 1\n*CONN\n*I x:drv O *D R=1 T=0\n*RES\n1 x:drv x:n 5 *LEN 1\n*END\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := readSPEF(strings.NewReader(in)); err == nil {
				t.Errorf("%s accepted", name)
			}
		})
	}
	if err := WriteSPEF(&bytes.Buffer{}, rctree.New("x", 1, 0)); err == nil {
		t.Errorf("invalid tree accepted by WriteSPEF")
	}
}

// readSPEF parses a fragment produced by WriteSPEF back into a tree: the
// round trip's oracle, which reads exactly the shape WriteSPEF produces
// (a single D_NET whose RC network is a tree rooted at the driver pin).
// Explicit aggressor lists are not representable in this subset, so all
// wires come back in estimation mode.
func readSPEF(r io.Reader) (*rctree.Tree, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)

	type sinkInfo struct {
		cap, rat, nm float64
	}
	type resEdge struct {
		a, b   string
		r, len float64
	}
	var (
		netName          string
		driverPin        string
		driverR, driverT float64
		sinks            = map[string]sinkInfo{}
		edges            []resEdge
		nodeCap          = map[string]float64{}
		section          string
		sawEnd           bool
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "*D_NET":
			if len(fields) < 2 {
				return nil, fmt.Errorf("netfmt: spef line %d: malformed D_NET", lineNo)
			}
			netName = fields[1]
		case fields[0] == "*CONN" || fields[0] == "*CAP" || fields[0] == "*RES":
			section = fields[0]
		case fields[0] == "*END":
			sawEnd = true
		case fields[0] == "*I" && section == "*CONN":
			if len(fields) < 3 {
				return nil, fmt.Errorf("netfmt: spef line %d: malformed pin", lineNo)
			}
			pin, dir := fields[1], fields[2]
			attrs, err := spefAttrs(fields[3:], lineNo)
			if err != nil {
				return nil, err
			}
			if dir == "O" {
				driverPin = pin
				driverR = attrs["R"]
				driverT = attrs["T"]
			} else {
				sinks[pin] = sinkInfo{cap: attrs["*L"], rat: attrs["*RAT"], nm: attrs["*NM"]}
			}
		case section == "*RES" && len(fields) >= 4:
			rv, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("netfmt: spef line %d: resistance %q", lineNo, fields[3])
			}
			e := resEdge{a: fields[1], b: fields[2], r: rv}
			for i := 4; i+1 < len(fields); i += 2 {
				if fields[i] == "*LEN" {
					if e.len, err = strconv.ParseFloat(fields[i+1], 64); err != nil {
						return nil, fmt.Errorf("netfmt: spef line %d: length %q", lineNo, fields[i+1])
					}
				}
			}
			edges = append(edges, e)
		case section == "*CAP" && len(fields) >= 3:
			cv, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("netfmt: spef line %d: capacitance %q", lineNo, fields[2])
			}
			nodeCap[fields[1]] = cv
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEnd {
		return nil, fmt.Errorf("netfmt: spef missing *END")
	}
	if driverPin == "" {
		return nil, fmt.Errorf("netfmt: spef has no driver pin")
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("netfmt: spef has no RES section")
	}

	// Build adjacency and orient from the driver.
	adj := map[string][]resEdge{}
	for _, e := range edges {
		adj[e.a] = append(adj[e.a], e)
		adj[e.b] = append(adj[e.b], resEdge{a: e.b, b: e.a, r: e.r, len: e.len})
	}
	tr := rctree.New(strings.TrimSuffix(netName, ":drv"), driverR, driverT)
	ids := map[string]rctree.NodeID{driverPin: tr.Root()}
	stack := []string{driverPin}
	visited := map[string]bool{driverPin: true}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range adj[cur] {
			if visited[e.b] {
				continue
			}
			visited[e.b] = true
			w := rctree.Wire{R: e.r, Length: e.len}
			var id rctree.NodeID
			var err error
			if s, isSink := sinks[e.b]; isSink {
				nm := strings.TrimPrefix(e.b, netName+":")
				id, err = tr.AddSink(ids[cur], w, nm, s.cap, s.rat, s.nm)
			} else {
				id, err = tr.AddInternal(ids[cur], w, true)
			}
			if err != nil {
				return nil, fmt.Errorf("netfmt: spef: %w", err)
			}
			ids[e.b] = id
			stack = append(stack, e.b)
		}
	}

	// Wire capacitance reconstruction: the writer lumped C/2 of every
	// wire at each end, so on a tree the system solves leaf-up — a
	// leaf's grounded cap is half its own wire, and each internal node's
	// residue after subtracting its children's halves is half its parent
	// wire.
	pinOf := map[rctree.NodeID]string{}
	for pin, id := range ids {
		pinOf[id] = pin
	}
	for _, v := range tr.Postorder() {
		if v == tr.Root() {
			continue
		}
		c := nodeCap[pinOf[v]]
		for _, ch := range tr.Node(v).Children {
			c -= tr.Node(ch).Wire.C / 2
		}
		if c < 0 {
			c = 0
		}
		tr.Node(v).Wire.C = 2 * c
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("netfmt: spef produced an invalid tree: %w", err)
	}
	return tr, nil
}

// spefAttrs parses KEY=VALUE and *KEY VALUE attribute runs.
func spefAttrs(fields []string, lineNo int) (map[string]float64, error) {
	out := map[string]float64{}
	for i := 0; i < len(fields); i++ {
		f := fields[i]
		if k, v, ok := strings.Cut(f, "="); ok {
			fv, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("netfmt: spef line %d: attr %q", lineNo, f)
			}
			out[k] = fv
			continue
		}
		if strings.HasPrefix(f, "*") && i+1 < len(fields) {
			fv, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				// A bare flag token (like the *D driver marker) whose
				// neighbor is not a value; leave the neighbor for the
				// next iteration.
				continue
			}
			out[f] = fv
			i++
		}
	}
	return out, nil
}
