package netfmt

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead drives the parser with arbitrary input: it must never panic,
// it must agree with the reference reader (the same accept or reject, the
// same error class, the same tree bit for bit) under the default limits
// and under tight ones, and anything it accepts must be a valid tree that
// survives a write/read round trip. Run the full fuzzer with
//
//	go test -fuzz=FuzzRead ./internal/netfmt
//
// (the seed corpus below runs on every ordinary `go test`).
func FuzzRead(f *testing.F) {
	const (
		head = "net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n"
		sink = "node 1 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s\n"
	)
	seeds := []string{
		"",
		"end\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 sink parent=0 wire=10,1e-15,0.001 x=0.001 y=0 cap=1e-15 rat=1e-9 nm=0.8 name=s\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 internal parent=0 wire=1,1,1 x=0 y=0 bufok=1\n" +
			"node 2 sink parent=1 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=a aggr=0.5:2;0.2:1\n" +
			"node 3 sink parent=1 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=b aggr=none\nend\n",
		"# comment\nnet y\ndriver r=2 t=1e-12\nnode 0 source x=-1 y=2\n" +
			"node 1 sink parent=0 wire=0,0,0 x=0 y=0 cap=0 rat=0 nm=0 name=-\nend\n",
		"net x\ndriver r=nan t=0\nnode 0 source x=0 y=0\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nnode 1 sink parent=99 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s\nend\n",
		"node 5 sink\n",
		"net\n",
		strings.Repeat("net x\n", 100),
		// Non-finite values in every numeric position: all must be
		// rejected at parse time, not discovered downstream.
		"net x\ndriver r=1 t=inf\nnode 0 source x=0 y=0\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=NaN y=0\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 sink parent=0 wire=inf,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 sink parent=0 wire=1,nan,1 x=0 y=0 cap=1 rat=0 nm=1 name=s\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 sink parent=0 wire=1,1,1 x=0 y=0 cap=-Inf rat=0 nm=1 name=s\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=nan nm=1 name=s aggr=inf:1\nend\n",
		// Huge node IDs and counts: the dense-ID rule and MaxNodes limit
		// must both hold.
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 99999999999999999999 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1048576 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s\nend\n",
		// Truncated records: mid-line, mid-field, missing end.
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 sink parent=0 wire=1,1\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nnode 1 sink parent=0\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\nnode 1\nend\n",
		"net x\ndriver r=1\nnode 0 source x=0 y=0\nend\n",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s",
		"net x\ndriver r=1 t=0\nnode 0 source x=0 y=0\n" +
			"node 1 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s aggr=0.5\nend\n",
		// An empty and a ;-terminated aggressor list.
		head + "node 1 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s aggr=\nend\n",
		head + "node 1 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s aggr=0.5:1;\nend\n",
		// CRLF line ends.
		strings.ReplaceAll(head+sink+"end\n", "\n", "\r\n"),
		// NEL and NBSP separate fields as strings.Fields splits them.
		head + "node\u00851 sink\u00a0parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s\u0085\nend\n",
		"\u00a0net x\ndriver r=1 t=0\n\u00a0# comment\nnode 0 source x=0 y=0\n" + sink + "end\n",
		// A key given twice keeps its last value; an unknown key is
		// ignored.
		head + "node 1 sink parent=0 wire=1,1,1 x=1 y=0 cap=1 rat=0 nm=1 name=s cap=2 x=3 name=t\nend\n",
		head + "node 1 sink parent=0 wire=1,1,1 x=0 y=0 cap=1 rat=0 nm=1 name=s color=red\nend\n",
		// More than 16 fields on one line.
		head + strings.TrimSuffix(sink, "\n") + strings.Repeat(" k=v", 12) + "\nend\n",
		// One line just under, and one just over, the line cap.
		head + strings.TrimSuffix(sink, "\n") + " pad=" + strings.Repeat("p", maxLine-len(sink)-5) + "\nend\n",
		head + strings.TrimSuffix(sink, "\n") + " pad=" + strings.Repeat("p", maxLine-len(sink)+10) + "\nend\n",
		// Text after end is never read.
		head + sink + "end\nnode 2 widget\n\x00garbage",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		matchReference(t, data, Limits{MaxNodes: 3, MaxAggressors: 2})
		tr, err := matchReference(t, data, Limits{})
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted input must be a valid tree...
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("Read accepted an invalid tree: %v\ninput: %q", verr, data)
		}
		// ...that round-trips.
		var buf bytes.Buffer
		if werr := Write(&buf, tr); werr != nil {
			t.Fatalf("Write failed on accepted tree: %v", werr)
		}
		tr2, rerr := Read(&buf)
		if rerr != nil {
			t.Fatalf("round trip failed: %v\nserialized: %q", rerr, buf.String())
		}
		if tr2.Len() != tr.Len() || tr2.NumSinks() != tr.NumSinks() {
			t.Fatalf("round trip changed shape: %d/%d nodes, %d/%d sinks",
				tr.Len(), tr2.Len(), tr.NumSinks(), tr2.NumSinks())
		}
	})
}
