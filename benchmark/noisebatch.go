package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"buffopt/internal/netfmt"
)

// runNoiseBatch is the paper's Section V experiment as a closed loop:
// the 500-net suite, cycled, each op reading the net, segmenting it,
// running the core.Solve ladder and auditing the answer. One untimed
// warm-up pass over the suite is part of set-up.
func runNoiseBatch(r *runner) error {
	n := 500
	if r.cfg.smoke {
		n = 40
	}
	var (
		inputs []netInput
		expect []uint64
	)
	teardown, err := r.setup(func() (func(), error) {
		in, err := suite(r.cfg.seed, n)
		if err != nil {
			return nil, err
		}
		r.resetWarm()
		exp := make([]uint64, len(in))
		for i := range in {
			a, _, err := noiseOp(r.ctx, nil, 0, in[i])
			exp[i] = a.hash()
			r.warmed(exp[i], err)
		}
		inputs, expect = in, exp
		return nil, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	r.loop(func(i int) (time.Duration, error) {
		k := i % len(inputs)
		op := r.tr.newOp()
		t0 := r.tr.now()
		start := time.Now()
		a, nodes, err := noiseOp(r.ctx, r.tr, op, inputs[k])
		lat := time.Since(start)
		r.tr.op(op, "op", t0)
		r.workedNodes(nodes)
		if err == nil && a.hash() != expect[k] {
			err = fmt.Errorf("net %d: answer differs from its warm-up answer", k)
		}
		return lat, err
	})
	if r.tr == nil {
		return nil
	}
	return r.probe(probeSet{samples: inputs[:min(16, len(inputs))]})
}

// noiseOp is one noise_batch operation: netfmt.Read, segmenting, the
// core.Solve ladder, and the audit (both analyzers on the answer). Each
// call into a layer is a span under op when traced.
func noiseOp(ctx context.Context, tr *tracer, op int64, in netInput) (answer, int, error) {
	t := tr.now()
	tree, err := netfmt.Read(strings.NewReader(in.text))
	tr.span(op, "netfmt.read", kindLayer, t)
	if err != nil {
		return answer{}, 0, err
	}
	t = tr.now()
	err = segmentTree(tree, in.segLen)
	tr.span(op, "segment", kindLayer, t)
	if err != nil {
		return answer{}, 0, err
	}
	nodes := tree.Len()
	t = tr.now()
	res, err := in.solve(ctx, tree)
	tr.span(op, "core.solve", kindLayer, t)
	if err != nil {
		return answer{}, 0, err
	}
	t = tr.now()
	err = auditResult(res, in.noiseParams())
	tr.span(op, "analyze", kindLayer, t)
	return answerOf(res.Result), nodes, err
}
