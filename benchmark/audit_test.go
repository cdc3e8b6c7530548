package main

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestDigestIsOrderIndependent(t *testing.T) {
	answers := []answer{
		{buffers: []placement{{3, "BUF_X1"}, {7, "INV_X2"}}, slack: 1.25e-10},
		{buffers: nil, slack: -3e-11},
		{buffers: []placement{{1, "BUF_X4"}}, slack: 2e-10},
		{buffers: []placement{{1, "BUF_X4"}}, slack: 2e-10}, // a repeated answer
	}
	var forward, backward, shuffled digest
	for _, a := range answers {
		forward.add(a.hash())
	}
	for i := len(answers) - 1; i >= 0; i-- {
		backward.add(answers[i].hash())
	}
	for _, i := range rand.New(rand.NewSource(7)).Perm(len(answers)) {
		shuffled.add(answers[i].hash())
	}
	if forward.String() != backward.String() || forward.String() != shuffled.String() {
		t.Errorf("digests differ by order: %s %s %s", forward.String(), backward.String(), shuffled.String())
	}
	var once digest
	for _, a := range answers[:3] {
		once.add(a.hash())
	}
	if once.String() == forward.String() {
		t.Error("a repeated answer cancelled out of the digest")
	}
}

func TestAnswerHashSeesPlacementsAndSlackBits(t *testing.T) {
	base := answer{buffers: []placement{{3, "BUF_X1"}}, slack: 1.25e-10}
	for _, other := range []answer{
		{buffers: []placement{{4, "BUF_X1"}}, slack: 1.25e-10},
		{buffers: []placement{{3, "BUF_X2"}}, slack: 1.25e-10},
		{buffers: []placement{{3, "BUF_X1"}}, slack: math.Nextafter(1.25e-10, 1)}, // one ulp
		{buffers: nil, slack: 1.25e-10},
	} {
		if other.hash() == base.hash() {
			t.Errorf("%+v hashes like %+v", other, base)
		}
	}
}

// TestAuditCatchesAWrongClaim solves a real net, checks the answer passes
// the audit, then corrupts the claimed slack and a placement.
func TestAuditCatchesAWrongClaim(t *testing.T) {
	in, err := suite(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	work, err := in[0].worked()
	if err != nil {
		t.Fatal(err)
	}
	res, err := in[0].solve(context.Background(), work)
	if err != nil {
		t.Fatal(err)
	}
	if err := auditResult(res, in[0].noiseParams()); err != nil {
		t.Fatalf("a fresh answer failed its audit: %v", err)
	}
	res.Slack *= 1 + 1e-9
	if err := auditResult(res, in[0].noiseParams()); err == nil {
		t.Error("the audit accepted a slack off by 1e-9")
	}
	resp := responseOf(res)
	resp.SlackPS = res.Slack * 1e12 / (1 + 1e-9)
	if err := auditResponse(resp, work, library, in[0].noiseParams()); err != nil {
		t.Errorf("a correct reply failed its audit: %v", err)
	}
	if len(resp.Buffers) > 0 {
		resp.Buffers[0].Node = work.Len()
		if err := auditResponse(resp, work, library, in[0].noiseParams()); err == nil {
			t.Error("the audit accepted a placement outside the tree")
		}
	}
}
