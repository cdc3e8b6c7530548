package netfmt

// The reader as it stood before the streaming rewrite: a bufio.Scanner
// with a 64 KiB buffer, strings.Fields per line and a map of each line's
// key=value fields. It is kept here, unchanged but for its names, only as
// the oracle the differential tests and FuzzRead hold ReadLimited to:
// the same accept or reject, the same error class, the same tree.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"buffopt/internal/guard"
	"buffopt/internal/rctree"
)

// readReference is ReadLimited's reference oracle.
func readReference(r io.Reader, lim Limits) (*rctree.Tree, error) {
	t, err := refReadLimited(r, lim)
	if err != nil && guard.Class(err) == "error" {
		err = fmt.Errorf("%w: %w", err, guard.ErrInvalidInput)
	}
	return t, err
}

func refReadLimited(r io.Reader, lim Limits) (*rctree.Tree, error) {
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
			kv, err := refKeyvals(fields[1:], lineNo)
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
			kv, err := refKeyvals(fields[3:], lineNo)
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

// refKVMap holds the key=value fields of one line.
type refKVMap map[string]string

func refKeyvals(fields []string, lineNo int) (refKVMap, error) {
	kv := refKVMap{}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("netfmt: line %d: malformed field %q", lineNo, f)
		}
		kv[k] = v
	}
	return kv, nil
}

// refParseFinite parses a float and rejects NaN and ±Inf: no field of the
// format has a meaningful non-finite value, and letting one through turns
// into analyzer poison far from the parse site.
func refParseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("non-finite value %q: %w", s, guard.ErrInvalidInput)
	}
	return f, nil
}

func (kv refKVMap) float(key string, lineNo int) (float64, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("netfmt: line %d: missing field %q", lineNo, key)
	}
	f, err := refParseFinite(v)
	if err != nil {
		return 0, fmt.Errorf("netfmt: line %d: field %s=%q: %w", lineNo, key, v, err)
	}
	return f, nil
}

func (kv refKVMap) wire(lineNo, maxAggr int) (rctree.Wire, error) {
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
	if w.R, err = refParseFinite(parts[0]); err != nil {
		return w, fmt.Errorf("netfmt: line %d: wire R %q: %w", lineNo, parts[0], err)
	}
	if w.C, err = refParseFinite(parts[1]); err != nil {
		return w, fmt.Errorf("netfmt: line %d: wire C %q: %w", lineNo, parts[1], err)
	}
	if w.Length, err = refParseFinite(parts[2]); err != nil {
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
				ratio, err := refParseFinite(rs)
				if err != nil {
					return w, fmt.Errorf("netfmt: line %d: aggressor ratio %q: %w", lineNo, rs, err)
				}
				slope, err := refParseFinite(ss)
				if err != nil {
					return w, fmt.Errorf("netfmt: line %d: aggressor slope %q: %w", lineNo, ss, err)
				}
				w.Aggressors = append(w.Aggressors, rctree.Coupling{Ratio: ratio, Slope: slope})
			}
		}
	}
	return w, nil
}

// matchReference reads data with ReadLimited and with readReference under
// lim and fails t unless they agree: both accept or both reject, with the
// same guard class, and an accepted tree is the same tree, every float
// bit for bit.
func matchReference(t testing.TB, data []byte, lim Limits) (*rctree.Tree, error) {
	t.Helper()
	got, err := ReadLimited(bytes.NewReader(data), lim)
	want, werr := readReference(bytes.NewReader(data), lim)
	if (err == nil) != (werr == nil) {
		t.Fatalf("ReadLimited err = %v, reference err = %v\ninput: %.300q", err, werr, data)
	}
	for _, class := range []error{guard.ErrInvalidInput, guard.ErrBudgetExceeded} {
		if errors.Is(err, class) != errors.Is(werr, class) {
			t.Fatalf("error classes differ on %v: ReadLimited %v, reference %v\ninput: %.300q", class, err, werr, data)
		}
	}
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(got, want) || !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
		t.Fatalf("trees differ\ninput: %.300q", data)
	}
	return got, nil
}

// TestReadMatchesReference diffs the reader against the reference on
// every net of the Section V suite at two seeds, as written by Write.
func TestReadMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 20260917} {
		texts, _ := suiteText(t, seed, 500)
		for i, text := range texts {
			if _, err := matchReference(t, []byte(text), Limits{}); err != nil {
				t.Fatalf("seed %d net %d: %v", seed, i, err)
			}
		}
	}
}
