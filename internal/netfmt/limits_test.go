package netfmt

import (
	"errors"
	"strings"
	"testing"

	"buffopt/internal/guard"
)

func TestReadRejectsNonFinite(t *testing.T) {
	for _, in := range []string{
		"net x\ndriver r=1 t=inf\nnode 0 source x=0 y=0\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 sink parent=0 wire=nan,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s aggr=inf:1\nend\n",
	} {
		_, err := Read(strings.NewReader(in))
		if !errors.Is(err, guard.ErrInvalidInput) {
			t.Errorf("Read(%q) err = %v, want ErrInvalidInput", in, err)
		}
	}
}

// TestReadTypesMalformedInput: a malformed line, a missing field or a
// tree that fails validation wraps guard.ErrInvalidInput, as a
// non-finite number does, so servers and exit codes classify it.
func TestReadTypesMalformedInput(t *testing.T) {
	for _, in := range []string{
		"",
		"net\n",
		"end\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nnode 1 sink parent=0\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 gate parent=0 wire=1,1,1 x=0 y=0\nend\n",
	} {
		_, err := Read(strings.NewReader(in))
		if !errors.Is(err, guard.ErrInvalidInput) {
			t.Errorf("Read(%q) err = %v, want ErrInvalidInput", in, err)
		}
	}
}

func TestReadNodeLimit(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n")
	sb.WriteString("node 1 internal parent=0 wire=1,1,1 x=0 y=0 bufok=1\n")
	sb.WriteString("node 2 sink parent=1 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s\nend\n")
	in := sb.String()

	if _, err := ReadLimited(strings.NewReader(in), Limits{MaxNodes: 2}); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded under a 2-node limit", err)
	}
	if _, err := ReadLimited(strings.NewReader(in), Limits{MaxNodes: 3}); err != nil {
		t.Fatalf("in-limit read failed: %v", err)
	}
}

func TestReadAggressorLimit(t *testing.T) {
	aggr := strings.Repeat("0.5:1;", 9) + "0.5:1"
	in := "net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
		"node 1 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s aggr=" + aggr + "\nend\n"
	if _, err := ReadLimited(strings.NewReader(in), Limits{MaxAggressors: 5}); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded for 10 aggressors over a 5 limit", err)
	}
	if _, err := ReadLimited(strings.NewReader(in), Limits{MaxAggressors: 10}); err != nil {
		t.Fatalf("in-limit read failed: %v", err)
	}
}
