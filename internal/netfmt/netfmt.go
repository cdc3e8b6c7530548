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
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

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
// field, a non-finite number, a line of 4 MiB or more, a tree that fails
// validation — wraps guard.ErrInvalidInput.
//
// The reader streams: it holds one line at a time, in a pooled buffer,
// and the tree it returns shares no memory with that buffer.
func ReadLimited(r io.Reader, lim Limits) (*rctree.Tree, error) {
	p := parserPool.Get().(*parser)
	p.br.Reset(r)
	t, err := p.read(lim.withDefaults())
	p.release()
	if err != nil && guard.Class(err) == "error" {
		err = fmt.Errorf("%w: %w", err, guard.ErrInvalidInput)
	}
	return t, err
}

// maxLine caps one line: a line of maxLine bytes or more, not counting
// its '\n', is an error. A line longer than the read buffer is gathered
// in a side buffer only up to the cap, so a stream without newlines
// costs at most this much.
const maxLine = 4 << 20

// parser is the per-read state ReadLimited takes from parserPool: the
// buffered reader, the current line's fields and its key=value slots.
// Fields and values point into the read or long-line buffer; only
// string copies of them leave a read.
type parser struct {
	br     *bufio.Reader
	long   []byte   // a line longer than br's buffer
	fields [][]byte // the current line's fields
	no     int      // the current line's number, from 1
	err    error    // the read error that ended the stream, io.EOF at its end

	val [numKeys][]byte // the current line's value per key
	has uint16          // bit k set: key k is on the current line
}

var parserPool = sync.Pool{New: func() any {
	return &parser{br: bufio.NewReaderSize(nil, 16<<10)}
}}

// release returns p to the pool without the reader it read from, and
// without a long-line buffer worth more than keeping.
func (p *parser) release() {
	p.br.Reset(nil)
	clear(p.fields[:cap(p.fields)])
	p.fields = p.fields[:0]
	if cap(p.long) > 64<<10 {
		p.long = nil
	}
	p.val, p.has, p.no, p.err = [numKeys][]byte{}, 0, 0, nil
	parserPool.Put(p)
}

// scan reads the next line and splits it into p.fields. It reports false
// at the end of the stream or on a read error, which p.err then holds.
func (p *parser) scan() bool {
	if p.err != nil {
		return false
	}
	line, err := p.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		p.long = append(p.long[:0], line...)
		for err == bufio.ErrBufferFull && len(p.long) < maxLine {
			line, err = p.br.ReadSlice('\n')
			p.long = append(p.long, line...)
		}
		line = p.long
	}
	p.no++
	n := len(line)
	if err == nil {
		n-- // the '\n'
	}
	if n >= maxLine {
		p.err = fmt.Errorf("netfmt: line %d: longer than %d bytes", p.no, maxLine-1)
		return false
	}
	if err != nil {
		p.err = err
		if len(line) == 0 {
			return false
		}
	}
	p.split(line)
	return true
}

// asciiSpace marks the bytes strings.Fields splits an ASCII line on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// split sets p.fields to line's fields, as strings.Fields would split
// them: in place on ASCII white space, or through bytes.Fields, which
// splits on Unicode white space too, once a non-ASCII byte shows up.
func (p *parser) split(line []byte) {
	f := p.fields[:0]
	start := -1
	for i, c := range line {
		if c >= utf8.RuneSelf {
			p.fields = append(f[:0], bytes.Fields(line)...)
			return
		}
		if !asciiSpace[c] {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			f = append(f, line[start:i])
			start = -1
		}
	}
	if start >= 0 {
		f = append(f, line[start:])
	}
	p.fields = f
}

func (p *parser) read(lim Limits) (*rctree.Tree, error) {
	var t *rctree.Tree
	var driverR, driverT float64
	var netName string
	haveDriver := false
	next := rctree.NodeID(0)

	for p.scan() {
		fields := p.fields
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		switch string(fields[0]) {
		case "net":
			if len(fields) != 2 {
				return nil, fmt.Errorf("netfmt: line %d: want 'net <name>'", p.no)
			}
			netName = string(fields[1])
		case "driver":
			if err := p.keyvals(fields[1:]); err != nil {
				return nil, err
			}
			var err error
			if driverR, err = p.float(keyR); err != nil {
				return nil, err
			}
			if driverT, err = p.float(keyT); err != nil {
				return nil, err
			}
			haveDriver = true
		case "node":
			if len(fields) < 3 {
				return nil, fmt.Errorf("netfmt: line %d: truncated node line", p.no)
			}
			id, err := strconv.Atoi(string(fields[1]))
			if err != nil || rctree.NodeID(id) != next {
				return nil, fmt.Errorf("netfmt: line %d: node IDs must be dense and ordered, got %q", p.no, fields[1])
			}
			if id >= lim.MaxNodes {
				return nil, fmt.Errorf("netfmt: line %d: net exceeds the %d-node limit: %w",
					p.no, lim.MaxNodes, guard.ErrBudgetExceeded)
			}
			kind := fields[2]
			if err := p.keyvals(fields[3:]); err != nil {
				return nil, err
			}
			if string(kind) == "source" {
				if t != nil {
					return nil, fmt.Errorf("netfmt: line %d: duplicate source", p.no)
				}
				if !haveDriver {
					return nil, fmt.Errorf("netfmt: line %d: driver line must precede the source", p.no)
				}
				t = rctree.New(netName, driverR, driverT)
				t.Node(t.Root()).X, t.Node(t.Root()).Y = p.coord(keyX), p.coord(keyY)
				next++
				continue
			}
			if t == nil {
				return nil, fmt.Errorf("netfmt: line %d: node before source", p.no)
			}
			parent, err := p.float(keyParent)
			if err != nil {
				return nil, err
			}
			wire, err := p.wire(lim.MaxAggressors)
			if err != nil {
				return nil, err
			}
			var nid rctree.NodeID
			switch string(kind) {
			case "internal":
				bufok, err := p.float(keyBufok)
				if err != nil {
					return nil, err
				}
				nid, err = t.AddInternal(rctree.NodeID(parent), wire, bufok != 0)
				if err != nil {
					return nil, fmt.Errorf("netfmt: line %d: %w", p.no, err)
				}
			case "sink":
				cap, err := p.float(keyCap)
				if err != nil {
					return nil, err
				}
				rat, err := p.float(keyRAT)
				if err != nil {
					return nil, err
				}
				nm, err := p.float(keyNM)
				if err != nil {
					return nil, err
				}
				var name string
				if v := p.val[keyName]; string(v) != "-" {
					name = string(v)
				}
				nid, err = t.AddSink(rctree.NodeID(parent), wire, name, cap, rat, nm)
				if err != nil {
					return nil, fmt.Errorf("netfmt: line %d: %w", p.no, err)
				}
			default:
				return nil, fmt.Errorf("netfmt: line %d: unknown node kind %q", p.no, kind)
			}
			t.Node(nid).X, t.Node(nid).Y = p.coord(keyX), p.coord(keyY)
			next++
		case "end":
			if t == nil {
				return nil, fmt.Errorf("netfmt: line %d: end before any nodes", p.no)
			}
			if err := t.Validate(); err != nil {
				return nil, fmt.Errorf("netfmt: parsed tree invalid: %w", err)
			}
			return t, nil
		default:
			return nil, fmt.Errorf("netfmt: line %d: unknown directive %q: %w", p.no, fields[0], guard.ErrInvalidInput)
		}
	}
	if p.err != io.EOF {
		return nil, p.err
	}
	return nil, fmt.Errorf("netfmt: missing 'end': %w", guard.ErrInvalidInput)
}

// The keys the reader looks up, each a slot of parser.val; a line may
// carry other keys, which are ignored.
const (
	keyR = iota
	keyT
	keyX
	keyY
	keyParent
	keyWire
	keyBufok
	keyCap
	keyRAT
	keyNM
	keyName
	keyAggr
	numKeys
)

var keyNames = [numKeys]string{"r", "t", "x", "y", "parent", "wire", "bufok", "cap", "rat", "nm", "name", "aggr"}

// keyvals fills the key slots from a line's key=value fields; a key
// given twice keeps its last value.
func (p *parser) keyvals(fields [][]byte) error {
	p.val, p.has = [numKeys][]byte{}, 0
	for _, f := range fields {
		eq := bytes.IndexByte(f, '=')
		if eq < 0 {
			return fmt.Errorf("netfmt: line %d: malformed field %q", p.no, f)
		}
		k, v := f[:eq], f[eq+1:]
		for key, name := range keyNames {
			if string(k) == name {
				p.val[key] = v
				p.has |= 1 << key
				break
			}
		}
	}
	return nil
}

// parseFinite parses a float and rejects NaN and ±Inf: no field of the
// format has a meaningful non-finite value, and letting one through turns
// into analyzer poison far from the parse site.
func parseFinite(b []byte) (float64, error) {
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("non-finite value %q: %w", b, guard.ErrInvalidInput)
	}
	return f, nil
}

func (p *parser) float(key int) (float64, error) {
	if p.has&(1<<key) == 0 {
		return 0, fmt.Errorf("netfmt: line %d: missing field %q", p.no, keyNames[key])
	}
	v := p.val[key]
	f, err := parseFinite(v)
	if err != nil {
		return 0, fmt.Errorf("netfmt: line %d: field %s=%q: %w", p.no, keyNames[key], v, err)
	}
	return f, nil
}

// coord is a placement coordinate, which the format has always read as 0
// when missing or unreadable.
func (p *parser) coord(key int) float64 {
	if p.has&(1<<key) == 0 {
		return 0
	}
	f, _ := parseFinite(p.val[key])
	return f
}

func (p *parser) wire(maxAggr int) (rctree.Wire, error) {
	if p.has&(1<<keyWire) == 0 {
		return rctree.Wire{}, fmt.Errorf("netfmt: line %d: missing wire", p.no)
	}
	v := p.val[keyWire]
	if bytes.Count(v, []byte(",")) != 2 {
		return rctree.Wire{}, fmt.Errorf("netfmt: line %d: wire wants R,C,L, got %q", p.no, v)
	}
	rs, rest, _ := bytes.Cut(v, []byte(","))
	cs, ls, _ := bytes.Cut(rest, []byte(","))
	var w rctree.Wire
	var err error
	if w.R, err = parseFinite(rs); err != nil {
		return w, fmt.Errorf("netfmt: line %d: wire R %q: %w", p.no, rs, err)
	}
	if w.C, err = parseFinite(cs); err != nil {
		return w, fmt.Errorf("netfmt: line %d: wire C %q: %w", p.no, cs, err)
	}
	if w.Length, err = parseFinite(ls); err != nil {
		return w, fmt.Errorf("netfmt: line %d: wire L %q: %w", p.no, ls, err)
	}
	if p.has&(1<<keyAggr) == 0 {
		return w, nil
	}
	a := p.val[keyAggr]
	if string(a) == "none" {
		w.Aggressors = []rctree.Coupling{}
		return w, nil
	}
	n := bytes.Count(a, []byte(";")) + 1
	if n > maxAggr {
		return w, fmt.Errorf("netfmt: line %d: %d aggressors exceed the %d-per-wire limit: %w",
			p.no, n, maxAggr, guard.ErrBudgetExceeded)
	}
	w.Aggressors = make([]rctree.Coupling, n)
	for i := range w.Aggressors {
		var pair []byte
		pair, a, _ = bytes.Cut(a, []byte(";"))
		rs, ss, ok := bytes.Cut(pair, []byte(":"))
		if !ok {
			return w, fmt.Errorf("netfmt: line %d: aggressor %q", p.no, pair)
		}
		if w.Aggressors[i].Ratio, err = parseFinite(rs); err != nil {
			return w, fmt.Errorf("netfmt: line %d: aggressor ratio %q: %w", p.no, rs, err)
		}
		if w.Aggressors[i].Slope, err = parseFinite(ss); err != nil {
			return w, fmt.Errorf("netfmt: line %d: aggressor slope %q: %w", p.no, ss, err)
		}
	}
	return w, nil
}
