// Package netfmt reads and writes routing trees in a small line-oriented
// text format, so benchmark nets can be saved, inspected, diffed, and fed
// to the command-line tools. It plays the role the proprietary design
// database played for the paper's experiments.
//
// Format (one net per file or stream):
//
//	# comments and blank lines are ignored
//	net <name>
//	driver r=<Ω> t=<s>
//	node <id> source x=<m> y=<m>
//	node <id> internal parent=<id> wire=<Ω>,<F>,<m> x=<m> y=<m> bufok=<0|1> [aggr=<ratio>:<slope>[;...]]
//	node <id> sink parent=<id> wire=<Ω>,<F>,<m> x=<m> y=<m> cap=<F> rat=<s> nm=<V> name=<label>
//	end
//
// Node IDs must be dense and in creation order (the source is 0), which is
// exactly what rctree produces; Write emits them that way.
package netfmt

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"buffopt/internal/guard"
	"buffopt/internal/rctree"
)

// Limits bounds what the reader will accept, so a malicious or corrupt
// stream cannot balloon memory before rctree validation ever runs. The
// zero value means the defaults below.
type Limits struct {
	// MaxNodes caps the node count of a single net. Default 1<<20.
	MaxNodes int
	// MaxAggressors caps the aggressor list length of a single wire.
	// Default 4096.
	MaxAggressors int
}

func (l Limits) withDefaults() Limits {
	if l.MaxNodes == 0 {
		l.MaxNodes = 1 << 20
	}
	if l.MaxAggressors == 0 {
		l.MaxAggressors = 4096
	}
	return l
}

// Write serializes the tree. Nodes are emitted in preorder and renumbered
// to preorder positions, so every parent precedes its children regardless
// of the order edits (Binarize, SplitWire) created them in; a tree written
// and re-read is structurally identical but may carry different node IDs.
func Write(w io.Writer, t *rctree.Tree) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("netfmt: refusing to write invalid tree: %w", err)
	}
	bw := bufio.NewWriter(w)
	name := t.Node(t.Root()).Name
	if name == "" {
		name = "net"
	}
	fmt.Fprintf(bw, "net %s\n", name)
	fmt.Fprintf(bw, "driver r=%g t=%g\n", t.DriverResistance, t.DriverDelay)
	order := t.Preorder()
	renum := make(map[rctree.NodeID]int, len(order))
	for i, v := range order {
		renum[v] = i
	}
	for i, v := range order {
		n := t.Node(v)
		switch n.Kind {
		case rctree.Source:
			fmt.Fprintf(bw, "node %d source x=%g y=%g\n", i, n.X, n.Y)
		case rctree.Internal:
			fmt.Fprintf(bw, "node %d internal parent=%d wire=%g,%g,%g x=%g y=%g bufok=%d%s\n",
				i, renum[n.Parent], n.Wire.R, n.Wire.C, n.Wire.Length, n.X, n.Y, b2i(n.BufferOK), aggrField(n.Wire))
		case rctree.Sink:
			fmt.Fprintf(bw, "node %d sink parent=%d wire=%g,%g,%g x=%g y=%g cap=%g rat=%g nm=%g name=%s%s\n",
				i, renum[n.Parent], n.Wire.R, n.Wire.C, n.Wire.Length, n.X, n.Y, n.Cap, n.RAT, n.NoiseMargin,
				sanitize(n.Name), aggrField(n.Wire))
		}
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sanitize(s string) string {
	if s == "" {
		return "-"
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' {
			return '_'
		}
		return r
	}, s)
}

func aggrField(w rctree.Wire) string {
	if w.Aggressors == nil {
		return ""
	}
	parts := make([]string, len(w.Aggressors))
	for i, a := range w.Aggressors {
		parts[i] = fmt.Sprintf("%g:%g", a.Ratio, a.Slope)
	}
	if len(parts) == 0 {
		return " aggr=none"
	}
	return " aggr=" + strings.Join(parts, ";")
}

// Read parses one tree from the stream under the default Limits.
func Read(r io.Reader) (*rctree.Tree, error) {
	return ReadLimited(r, Limits{})
}

// ReadLimited parses one tree from the stream. Streams exceeding lim are
// rejected (wrapping guard.ErrBudgetExceeded) before the oversized
// structure is built; every other failure — a malformed line, a missing
// field, a non-finite number, a tree that fails validation — wraps
// guard.ErrInvalidInput.
func ReadLimited(r io.Reader, lim Limits) (*rctree.Tree, error) {
	t, err := readLimited(r, lim)
	if err != nil && guard.Class(err) == "error" {
		err = fmt.Errorf("%w: %w", err, guard.ErrInvalidInput)
	}
	return t, err
}

func readLimited(r io.Reader, lim Limits) (*rctree.Tree, error) {
	lim = lim.withDefaults()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)

	var t *rctree.Tree
	var driverR, driverT float64
	var netName string
	haveDriver := false
	lineNo := 0
	next := rctree.NodeID(0)

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "net":
			if len(fields) != 2 {
				return nil, fmt.Errorf("netfmt: line %d: want 'net <name>'", lineNo)
			}
			netName = fields[1]
		case "driver":
			kv, err := keyvals(fields[1:], lineNo)
			if err != nil {
				return nil, err
			}
			if driverR, err = kv.float("r", lineNo); err != nil {
				return nil, err
			}
			if driverT, err = kv.float("t", lineNo); err != nil {
				return nil, err
			}
			haveDriver = true
		case "node":
			if len(fields) < 3 {
				return nil, fmt.Errorf("netfmt: line %d: truncated node line", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || rctree.NodeID(id) != next {
				return nil, fmt.Errorf("netfmt: line %d: node IDs must be dense and ordered, got %q", lineNo, fields[1])
			}
			if id >= lim.MaxNodes {
				return nil, fmt.Errorf("netfmt: line %d: net exceeds the %d-node limit: %w",
					lineNo, lim.MaxNodes, guard.ErrBudgetExceeded)
			}
			kind := fields[2]
			kv, err := keyvals(fields[3:], lineNo)
			if err != nil {
				return nil, err
			}
			if kind == "source" {
				if t != nil {
					return nil, fmt.Errorf("netfmt: line %d: duplicate source", lineNo)
				}
				if !haveDriver {
					return nil, fmt.Errorf("netfmt: line %d: driver line must precede the source", lineNo)
				}
				t = rctree.New(netName, driverR, driverT)
				t.Node(t.Root()).X, _ = kv.float("x", lineNo)
				t.Node(t.Root()).Y, _ = kv.float("y", lineNo)
				next++
				continue
			}
			if t == nil {
				return nil, fmt.Errorf("netfmt: line %d: node before source", lineNo)
			}
			parent, err := kv.float("parent", lineNo)
			if err != nil {
				return nil, err
			}
			wire, err := kv.wire(lineNo, lim.MaxAggressors)
			if err != nil {
				return nil, err
			}
			var nid rctree.NodeID
			switch kind {
			case "internal":
				bufok, err := kv.float("bufok", lineNo)
				if err != nil {
					return nil, err
				}
				nid, err = t.AddInternal(rctree.NodeID(parent), wire, bufok != 0)
				if err != nil {
					return nil, fmt.Errorf("netfmt: line %d: %w", lineNo, err)
				}
			case "sink":
				cap, err := kv.float("cap", lineNo)
				if err != nil {
					return nil, err
				}
				rat, err := kv.float("rat", lineNo)
				if err != nil {
					return nil, err
				}
				nm, err := kv.float("nm", lineNo)
				if err != nil {
					return nil, err
				}
				name := kv["name"]
				if name == "-" {
					name = ""
				}
				nid, err = t.AddSink(rctree.NodeID(parent), wire, name, cap, rat, nm)
				if err != nil {
					return nil, fmt.Errorf("netfmt: line %d: %w", lineNo, err)
				}
			default:
				return nil, fmt.Errorf("netfmt: line %d: unknown node kind %q", lineNo, kind)
			}
			t.Node(nid).X, _ = kv.float("x", lineNo)
			t.Node(nid).Y, _ = kv.float("y", lineNo)
			next++
		case "end":
			if t == nil {
				return nil, fmt.Errorf("netfmt: line %d: end before any nodes", lineNo)
			}
			if err := t.Validate(); err != nil {
				return nil, fmt.Errorf("netfmt: parsed tree invalid: %w", err)
			}
			return t, nil
		default:
			return nil, fmt.Errorf("netfmt: line %d: unknown directive %q: %w", lineNo, fields[0], guard.ErrInvalidInput)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("netfmt: missing 'end': %w", guard.ErrInvalidInput)
}

// kvmap holds the key=value fields of one line.
type kvmap map[string]string

func keyvals(fields []string, lineNo int) (kvmap, error) {
	kv := kvmap{}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("netfmt: line %d: malformed field %q", lineNo, f)
		}
		kv[k] = v
	}
	return kv, nil
}

// parseFinite parses a float and rejects NaN and ±Inf: no field of the
// format has a meaningful non-finite value, and letting one through turns
// into analyzer poison far from the parse site.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("non-finite value %q: %w", s, guard.ErrInvalidInput)
	}
	return f, nil
}

func (kv kvmap) float(key string, lineNo int) (float64, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("netfmt: line %d: missing field %q", lineNo, key)
	}
	f, err := parseFinite(v)
	if err != nil {
		return 0, fmt.Errorf("netfmt: line %d: field %s=%q: %w", lineNo, key, v, err)
	}
	return f, nil
}

func (kv kvmap) wire(lineNo, maxAggr int) (rctree.Wire, error) {
	v, ok := kv["wire"]
	if !ok {
		return rctree.Wire{}, fmt.Errorf("netfmt: line %d: missing wire", lineNo)
	}
	parts := strings.Split(v, ",")
	if len(parts) != 3 {
		return rctree.Wire{}, fmt.Errorf("netfmt: line %d: wire wants R,C,L, got %q", lineNo, v)
	}
	var w rctree.Wire
	var err error
	if w.R, err = parseFinite(parts[0]); err != nil {
		return w, fmt.Errorf("netfmt: line %d: wire R %q: %w", lineNo, parts[0], err)
	}
	if w.C, err = parseFinite(parts[1]); err != nil {
		return w, fmt.Errorf("netfmt: line %d: wire C %q: %w", lineNo, parts[1], err)
	}
	if w.Length, err = parseFinite(parts[2]); err != nil {
		return w, fmt.Errorf("netfmt: line %d: wire L %q: %w", lineNo, parts[2], err)
	}
	if a, ok := kv["aggr"]; ok {
		w.Aggressors = []rctree.Coupling{}
		if a != "none" {
			pairs := strings.Split(a, ";")
			if len(pairs) > maxAggr {
				return w, fmt.Errorf("netfmt: line %d: %d aggressors exceed the %d-per-wire limit: %w",
					lineNo, len(pairs), maxAggr, guard.ErrBudgetExceeded)
			}
			for _, pair := range pairs {
				rs, ss, ok := strings.Cut(pair, ":")
				if !ok {
					return w, fmt.Errorf("netfmt: line %d: aggressor %q", lineNo, pair)
				}
				ratio, err := parseFinite(rs)
				if err != nil {
					return w, fmt.Errorf("netfmt: line %d: aggressor ratio %q: %w", lineNo, rs, err)
				}
				slope, err := parseFinite(ss)
				if err != nil {
					return w, fmt.Errorf("netfmt: line %d: aggressor slope %q: %w", lineNo, ss, err)
				}
				w.Aggressors = append(w.Aggressors, rctree.Coupling{Ratio: ratio, Slope: slope})
			}
		}
	}
	return w, nil
}
