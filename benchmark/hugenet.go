package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"buffopt/internal/core"
	"buffopt/internal/rctree"
)

// hugeMinNodes is the size ROADMAP asks of the net that decides whether
// parallel DP earns its keep.
const hugeMinNodes = 10000

// runHugeNet solves one routed net of at least 10k nodes with
// core.Optimize under MaxSlack (the delay objective: a noise objective
// at this size is outside any run budget). The net is
// generated and segmented during set-up; the warm-up is one solve.
func runHugeNet(r *runner) error {
	sinks, box, segLen, minNodes := 1000, 12e-3, 0.035e-3, hugeMinNodes
	if r.cfg.smoke {
		sinks, box, segLen, minNodes = 60, 3e-3, 0.1e-3, 0
	}
	objective := core.MaxSlack
	var (
		in     netInput
		work   *rctree.Tree
		expect uint64
	)
	teardown, err := r.setup(func() (func(), error) {
		raw, err := routedNet(rand.New(rand.NewSource(r.cfg.seed)), "huge", sinks, box)
		if err != nil {
			return nil, err
		}
		if in, err = newNetInput(raw, segLen, &objective); err != nil {
			return nil, err
		}
		if work, err = in.worked(); err != nil {
			return nil, err
		}
		if work.Len() < minNodes {
			return nil, fmt.Errorf("huge_net: worked tree has %d nodes, want at least %d", work.Len(), minNodes)
		}
		r.resetWarm()
		a, err := hugeOp(r.ctx, nil, 0, in, work)
		expect = a.hash()
		r.warmed(expect, err)
		return nil, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	r.loop(func(int) (time.Duration, error) {
		op := r.tr.newOp()
		t0 := r.tr.now()
		start := time.Now()
		a, err := hugeOp(r.ctx, r.tr, op, in, work)
		lat := time.Since(start)
		r.tr.op(op, "op", t0)
		r.workedNodes(work.Len())
		if err == nil && a.hash() != expect {
			err = fmt.Errorf("answer differs from the warm-up answer")
		}
		return lat, err
	})
	if r.tr == nil {
		return nil
	}
	return r.probe(probeSet{samples: []netInput{in}})
}

// hugeOp is one huge_net operation: the solve and its audit. core.Optimize
// never modifies its input, so every op reuses the worked tree.
func hugeOp(ctx context.Context, tr *tracer, op int64, in netInput, work *rctree.Tree) (answer, error) {
	t := tr.now()
	res, err := in.solve(ctx, work)
	tr.span(op, "core.solve", kindLayer, t)
	if err != nil {
		return answer{}, err
	}
	t = tr.now()
	err = auditResult(res, in.noiseParams())
	tr.span(op, "analyze", kindLayer, t)
	return answerOf(res.Result), err
}
