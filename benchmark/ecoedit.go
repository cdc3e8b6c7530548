package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"time"

	"buffopt/internal/core"
	"buffopt/internal/rctree"
	"buffopt/internal/server"
)

// The eco_edit sessions.
const (
	ecoSessions = 8       // sessions, edited in turn
	ecoSinks    = 150     // sinks per routed net
	ecoBox      = 9e-3    // routing box side, m
	ecoSegLen   = 0.25e-3 // segmenting length, m: ~690-node worked trees
	ecoWarm     = 3       // warm-up edits per session, during set-up
	// ecoStep scales each edit's value: edit k of a session sets its
	// target to (1 + ecoStep·(k+1)) times the target's value in the
	// session's starting tree. Every value is new, so no edit returns a
	// net to an earlier state, and thousands of edits move a value by
	// well under a percent, keeping every net noise-feasible.
	ecoStep = 2e-6
	// ecoFullEvery spaces the traced run's from-scratch reference solves.
	ecoFullEvery = 8
)

// ecoSession is one /solve/delta session and the client's mirror of it.
type ecoSession struct {
	in     netInput
	id     string       // the replica's session ID
	start  *rctree.Tree // the session's tree before any edit
	mirror *rctree.Tree // the client's copy, edits applied in order (audit)
	sinks  []rctree.NodeID
	wires  []rctree.NodeID // nodes whose parent wire has parasitics
	rng    *rand.Rand
	k      int // edits issued
	// core mirrors the session in process for the traced replay.
	core *core.Session
}

// ecoRecord is one measured delta, kept by traced runs for the replay.
type ecoRecord struct {
	op    int64
	edit  core.Edit
	body  []byte
	reply []byte
}

// runEcoEdit drives /solve/delta straight at one replica: 8 sessions
// edited in turn; each session's edits cycle set-cap, set-rat and
// set-wire on seeded targets.
func runEcoEdit(r *runner) error {
	sessions, sinks, box := ecoSessions, ecoSinks, ecoBox
	if r.cfg.smoke {
		sessions, sinks, box = 2, 30, 4e-3
	}
	objective := core.MaxSlackNoise
	var (
		url      string
		client   *http.Client
		sessList []*ecoSession
	)
	teardown, err := r.setup(func() (func(), error) {
		u, stop, err := startReplica()
		if err != nil {
			return nil, err
		}
		c := newClient(1)
		down := func() {
			c.CloseIdleConnections()
			stop()
		}
		rng := rand.New(rand.NewSource(r.cfg.seed))
		r.resetWarm()
		var list []*ecoSession
		for s := 0; s < sessions; s++ {
			raw, err := routedNet(rng, fmt.Sprintf("eco%d", s), sinks, box)
			if err != nil {
				return down, err
			}
			in, err := newNetInput(raw, ecoSegLen, &objective)
			if err != nil {
				return down, err
			}
			in.binarize = true
			es, err := newEcoSession(in, r.cfg.seed+int64(s), r.tr != nil)
			if err != nil {
				return down, err
			}
			// Create the session and warm it with a few edits; every answer
			// is audited and joins the digest.
			a, err := es.create(c, u)
			r.warmed(a.hash(), err)
			for w := 0; w < ecoWarm; w++ {
				e := es.nextEdit()
				resp, err := es.send(c, u, e)
				if err == nil {
					es.apply(e)
					err = es.audit(resp)
				}
				if err == nil && es.core != nil {
					_, err = core.Delta(r.ctx, es.core, []core.Edit{e}, core.Options{})
				}
				r.warmed(answerOfResponse(&resp.SolveResponse).hash(), err)
			}
			list = append(list, es)
		}
		url, client, sessList = u, c, list
		return down, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	// Op i edits session i mod 8, so each session's edit stream is in
	// order. Each reply is audited against the client's mirror once its
	// latency is taken; traced runs also keep the exchange for the replay.
	records := make([][]ecoRecord, len(sessList))
	r.loop(func(i int) (time.Duration, error) {
		s := i % len(sessList)
		es := sessList[s]
		e := es.nextEdit()
		body := es.deltaBody(e)
		op := r.tr.newOp()
		t0 := r.tr.now()
		start := time.Now()
		status, reply, err := post(client, url+"/solve/delta", "application/json", body)
		lat := time.Since(start)
		r.tr.op(op, "eco.http", t0)
		es.apply(e)
		if err != nil {
			return lat, err
		}
		if r.tr != nil {
			records[s] = append(records[s], ecoRecord{op: op, edit: e, body: body, reply: reply})
		}
		return lat, es.auditReply(status, reply)
	})
	if r.tr == nil {
		return nil
	}
	if err := replayEco(r, sessList, records); err != nil {
		return err
	}
	samples := make([]netInput, len(sessList))
	for s, es := range sessList {
		samples[s] = es.in
	}
	return r.probe(probeSet{samples: samples})
}

func newEcoSession(in netInput, seed int64, mirror bool) (*ecoSession, error) {
	w, err := in.worked()
	if err != nil {
		return nil, err
	}
	es := &ecoSession{in: in, start: w, mirror: w.Clone(), rng: rand.New(rand.NewSource(seed))}
	es.sinks = w.Sinks()
	for v := rctree.NodeID(0); int(v) < w.Len(); v++ {
		if v != w.Root() && w.Node(v).Wire.C > 0 {
			es.wires = append(es.wires, v)
		}
	}
	if mirror {
		es.core, err = core.NewSession(core.Problem{Tree: w, Library: library, Params: sectionV, Objective: *in.objective},
			core.SessionConfig{MemoEntries: 8192, MemoBytes: 16 << 20, Namespace: "bench.eco"})
		if err != nil {
			return nil, err
		}
	}
	return es, nil
}

// nextEdit draws the session's next edit: set-cap, set-rat and set-wire
// in turn, on a seeded target, with a value no earlier edit used.
func (es *ecoSession) nextEdit() core.Edit {
	f := 1 + ecoStep*float64(es.k+1)
	op := core.EditOp(es.k % 3)
	es.k++
	switch op {
	case core.EditSetCap:
		v := es.sinks[es.rng.Intn(len(es.sinks))]
		return core.Edit{Op: op, Node: v, Value: es.start.Node(v).Cap * f}
	case core.EditSetRAT:
		v := es.sinks[es.rng.Intn(len(es.sinks))]
		return core.Edit{Op: op, Node: v, Value: es.start.Node(v).RAT * f}
	}
	v := es.wires[es.rng.Intn(len(es.wires))]
	w := es.start.Node(v).Wire
	w.R *= f
	w.C *= f
	return core.Edit{Op: core.EditSetWire, Node: v, Wire: w}
}

// apply makes the edit on the client's mirror.
func (es *ecoSession) apply(e core.Edit) {
	n := es.mirror.Node(e.Node)
	switch e.Op {
	case core.EditSetCap:
		n.Cap = e.Value
	case core.EditSetRAT:
		n.RAT = e.Value
	case core.EditSetWire:
		n.Wire = e.Wire
	}
}

// deltaBody is the v2 envelope carrying one edit to the session.
func (es *ecoSession) deltaBody(e core.Edit) []byte {
	ee := server.EditEnvelope{Op: e.Op.String(), Node: int(e.Node)}
	if e.Op == core.EditSetWire {
		ee.Wire = &server.WireEnvelope{R: e.Wire.R, C: e.Wire.C, Length: e.Wire.Length}
	} else {
		v := e.Value
		ee.Value = &v
	}
	v := 2
	body, _ := json.Marshal(server.Envelope{V: &v, Session: &server.SessionEnvelope{ID: es.id}, Edits: []server.EditEnvelope{ee}})
	return body
}

// create opens the session on the replica and audits its first answer.
func (es *ecoSession) create(c *http.Client, url string) (answer, error) {
	var resp server.DeltaResponse
	if err := postJSON(c, url+"/solve/delta", v2Envelope(es.in), &resp); err != nil {
		return answer{}, err
	}
	es.id = resp.SessionID
	if resp.Nodes != es.mirror.Len() {
		return answer{}, fmt.Errorf("session tree has %d nodes, the client's copy %d", resp.Nodes, es.mirror.Len())
	}
	return answerOfResponse(&resp.SolveResponse), es.audit(&resp)
}

// send posts one edit and decodes the reply.
func (es *ecoSession) send(c *http.Client, url string, e core.Edit) (*server.DeltaResponse, error) {
	var resp server.DeltaResponse
	err := postJSON(c, url+"/solve/delta", es.deltaBody(e), &resp)
	return &resp, err
}

// audit checks a delta answer against the mirror: the memo ledger
// closes, and the answer passes the analyzers on the edited tree.
func (es *ecoSession) audit(resp *server.DeltaResponse) error {
	if resp.Reused+resp.Resolved != resp.Lookups {
		return fmt.Errorf("memo ledger open: reused %d + resolved %d != lookups %d", resp.Reused, resp.Resolved, resp.Lookups)
	}
	return auditResponse(&resp.SolveResponse, es.mirror, library, es.in.noiseParams())
}

func (es *ecoSession) auditReply(status int, reply []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(reply)))
	}
	var resp server.DeltaResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return err
	}
	return es.audit(&resp)
}

// replayEco re-runs each measured delta in process, in session order:
// the envelope decode, core.Delta on the mirror session, the analyzers
// and the encode as replay spans under the delta's op span; every
// ecoFullEvery-th edit also times core.Optimize from scratch on the same
// edited tree. The DP's allocations are measured around core.Delta.
func replayEco(r *runner, sessList []*ecoSession, records [][]ecoRecord) error {
	tr := r.tr
	for s, es := range sessList {
		for k, rec := range records[s] {
			op := rec.op
			t := tr.now()
			var env server.Envelope
			err := json.Unmarshal(rec.body, &env)
			tr.span(op, "server.decode", kindReplay, t)
			if err != nil {
				return err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t = tr.now()
			res, err := core.Delta(r.ctx, es.core, []core.Edit{rec.edit}, core.Options{})
			tr.span(op, "eco.delta", kindReplay, t)
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			tr.value("dp.alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
			tr.value("dp.allocs", float64(after.Mallocs-before.Mallocs))
			r.workedNodes(es.mirror.Len())
			sr := &core.SolveResult{Result: res.Result, Tier: core.TierExact}
			t = tr.now()
			analyzeBoth(sr)
			tr.span(op, "analyze", kindReplay, t)
			var reply server.DeltaResponse
			if err := json.Unmarshal(rec.reply, &reply); err != nil {
				return err
			}
			t = tr.now()
			err = encodeResponse(&reply)
			tr.span(op, "server.encode", kindReplay, t)
			if err != nil {
				return err
			}
			if k%ecoFullEvery == 0 {
				p := es.core.Problem()
				t = tr.now()
				_, err := core.Optimize(r.ctx, p, core.Options{})
				tr.span(op, "eco.full", kindProbe, t)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}
