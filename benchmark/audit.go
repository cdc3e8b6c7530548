package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/server"
)

// slackTol is the audit's agreement bound between the DP's claimed slack
// and the Elmore analyzer's: relative, far above the ~1e-15 the two
// differ by in practice and far below any real disagreement.
const slackTol = 1e-12

// placement is one inserted buffer of an answer.
type placement struct {
	node int
	name string
}

// answer is what the audit and the digest see of one solve.
type answer struct {
	buffers []placement // sorted by node
	slack   float64     // as the program reported it (s in-process, ps over HTTP)
}

// answerOf flattens an in-process result.
func answerOf(res *core.Result) answer {
	a := answer{slack: res.Slack}
	for v, b := range res.Buffers {
		a.buffers = append(a.buffers, placement{node: int(v), name: b.Name})
	}
	sort.Slice(a.buffers, func(i, j int) bool { return a.buffers[i].node < a.buffers[j].node })
	return a
}

// answerOfResponse flattens a server response (placements arrive sorted).
func answerOfResponse(r *server.SolveResponse) answer {
	a := answer{slack: r.SlackPS}
	for _, b := range r.Buffers {
		a.buffers = append(a.buffers, placement{node: b.Node, name: b.Name})
	}
	return a
}

// hash identifies an answer: its placements and the bits of its slack.
func (a answer) hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range a.buffers {
		binary.LittleEndian.PutUint64(buf[:], uint64(p.node))
		h.Write(buf[:])
		h.Write([]byte(p.name))
		h.Write([]byte{0})
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a.slack))
	h.Write(buf[:])
	return h.Sum64()
}

// digest accumulates answer hashes by addition modulo 2^64, so it does
// not depend on the order answers arrive in, and — unlike XOR — a
// repeated answer does not cancel itself out.
type digest struct {
	sum uint64
	n   int
}

func (d *digest) add(h uint64) {
	d.sum += h
	d.n++
}

func (d *digest) String() string { return fmt.Sprintf("%016x/%d", d.sum, d.n) }

// auditTree re-derives a claimed answer on tree with the independent
// analyzers: the Elmore worst slack must equal the claimed slack (scaled
// by slackScale: 1 for seconds, 1e12 for picoseconds) within slackTol,
// and when params is non-nil the buffered tree must be noise-clean.
func auditTree(tree *rctree.Tree, assign map[rctree.NodeID]buffers.Buffer, slack, slackScale float64, params *noise.Params) error {
	got := elmore.Analyze(tree, assign).WorstSlack * slackScale
	if !closeRel(got, slack, slackTol) {
		return fmt.Errorf("audit: Elmore slack %s disagrees with the claimed %s",
			strconv.FormatFloat(got, 'g', -1, 64), strconv.FormatFloat(slack, 'g', -1, 64))
	}
	if params != nil && !noise.Analyze(tree, assign, *params).Clean() {
		return fmt.Errorf("audit: answer leaves noise violations")
	}
	return nil
}

// auditResult audits an in-process answer on the solver's own copy of
// the worked tree. Only exact answers pass: the benchmark's budgets are
// generous, so a degraded tier is itself a failure.
func auditResult(res *core.SolveResult, params *noise.Params) error {
	if res.Tier != core.TierExact {
		return fmt.Errorf("audit: answer came from the %s tier", res.Tier)
	}
	return auditTree(res.Tree, res.Buffers, res.Slack, 1, params)
}

// auditResponse audits a server answer against the client's own copy of
// the worked tree the server solved.
func auditResponse(r *server.SolveResponse, worked *rctree.Tree, lib *buffers.Library, params *noise.Params) error {
	if r.Tier != core.TierExact.String() {
		return fmt.Errorf("audit: answer came from the %s tier", r.Tier)
	}
	assign := make(map[rctree.NodeID]buffers.Buffer, len(r.Buffers))
	for _, p := range r.Buffers {
		b, ok := lib.ByName(p.Name)
		if !ok || p.Node < 0 || p.Node >= worked.Len() {
			return fmt.Errorf("audit: unknown placement %s at node %d", p.Name, p.Node)
		}
		assign[rctree.NodeID(p.Node)] = b
	}
	return auditTree(worked, assign, r.SlackPS, 1e12, params)
}

// analyzeBoth runs the two analyzers bufferd runs on every answer it
// returns.
func analyzeBoth(res *core.SolveResult) {
	noise.Analyze(res.Tree, res.Buffers, sectionV)
	elmore.Analyze(res.Tree, res.Buffers)
}

// closeRel reports |a-b| <= tol·max(|a|, |b|).
func closeRel(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
