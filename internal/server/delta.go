package server

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"time"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/faultinject"
	"buffopt/internal/guard"
	"buffopt/internal/netfmt"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
)

// DeltaResponse is the 200 body of POST /solve/delta: the solve answer
// in the same shape /solve uses, plus the session identity and the
// reuse ledger. Reused + Resolved == Lookups on every response — the
// invariant the ecosoak closes against the server.delta.* counters.
type DeltaResponse struct {
	SolveResponse
	// SessionID addresses the session on later /solve/delta posts. Only
	// meaningful on the replica that answered (route deltas by session).
	SessionID string `json:"session_id"`
	// Created reports that this request minted the session.
	Created bool `json:"created,omitempty"`
	// EditsApplied counts the edit ops applied by this request.
	EditsApplied int `json:"edits_applied"`
	// Nodes is the session's worked-tree size after the edits — the ID
	// space later edits address.
	Nodes int `json:"nodes"`
	// Reused, Resolved, Lookups are the subtree-memo ledger for this
	// re-solve: subtrees answered from the memo, recomputed, and
	// consulted in total.
	Reused   int64 `json:"reused"`
	Resolved int64 `json:"resolved"`
	Lookups  int64 `json:"lookups"`
}

// deltaRequest is one decoded /solve/delta post.
type deltaRequest struct {
	// sessionID is the target session; empty means create (req != nil).
	sessionID string
	// create, when non-nil, is the decoded solve request to build the new
	// session from.
	create *solveRequest
	// objective/k select the new session's problem (create only).
	objective core.Objective
	k         *int
	// edits is the converted edit stream.
	edits []core.Edit
	// timeout/maxCands are the knobs this call set; zero keeps the
	// session's own (the values its create decoded).
	timeout  time.Duration
	maxCands int
}

// handleDelta is POST /solve/delta: the incremental (ECO) re-solve
// endpoint. First post carries a net (plus optional edits) and mints a
// session; later posts carry the session id and an edit stream, and the
// answer is bit-identical to a from-scratch solve of the edited net —
// only faster, because untouched subtrees replay from the session memo.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "invalid", "POST a v2 envelope to /solve/delta", 0)
		return
	}
	obs.Inc("server.delta.requests")

	ctx, span := s.tracer.StartTrace(r.Context(), "server.delta", obs.TraceParentFrom(r.Header))
	defer span.End()
	w.Header().Set("X-Trace-Id", span.TraceID().String())

	release, err := s.admitNS(ctx, "server.delta")
	if err != nil {
		s.shed(w, err)
		return
	}
	defer release()

	req, err := s.decodeDelta(r)
	if err != nil {
		obs.Inc("server.delta.decode.rejected")
		writeError(w, decodeStatus(err), guard.Class(err), err.Error(), 0)
		return
	}

	resp, err := s.deltaAdmitted(ctx, req)
	if err != nil {
		status := guard.HTTPStatus(err)
		if req.sessionID != "" && errors.Is(err, errSessionUnknown) {
			// Unknown/expired session: 404, so clients re-create instead
			// of retrying into a wall. Never answered with a silent
			// from-scratch solve — the ledger must stay honest.
			status = http.StatusNotFound
		}
		writeError(w, status, guard.Class(err), err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// errSessionUnknown tags the lookup failure so the handler can answer
// 404 while the class stays "invalid".
var errSessionUnknown = errors.New("server: delta session not found")

// deltaAdmitted runs one admitted, decoded delta under its deadline and
// chaos plan, with the same outcome/duration telemetry classes the
// /solve path records.
func (s *Server) deltaAdmitted(ctx context.Context, req *deltaRequest) (DeltaResponse, error) {
	var (
		sess    *serverSession
		created bool
	)
	if req.sessionID != "" {
		got, err := s.sessions.get(req.sessionID)
		if err != nil {
			obs.Inc("server.delta.outcome." + guard.Class(err))
			return DeltaResponse{}, errors.Join(errSessionUnknown, err)
		}
		sess = got
	} else {
		cs, err := s.createSession(req)
		if err != nil {
			obs.Inc("server.delta.outcome." + guard.Class(err))
			return DeltaResponse{}, err
		}
		sess, created = cs, true
	}

	timeout, maxCands := sess.req.timeout, sess.req.maxCands
	if req.timeout > 0 {
		timeout = req.timeout
	}
	if req.maxCands > 0 {
		maxCands = req.maxCands
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	start := time.Now()
	var res *core.DeltaResult
	runErr := guard.Safe("server.delta", func() error {
		rctx := faultinject.WithPlan(ctx, s.cfg.Injector.Assign())
		if faultinject.Take(rctx, faultinject.FaultPanic) {
			panic(faultinject.ErrInjected)
		}
		var e error
		res, e = core.Delta(rctx, sess.sess, req.edits, core.Options{Budget: s.budget(rctx, maxCands)})
		return e
	})
	elapsed := time.Since(start)
	// The answer is shaped for the wire before the outcome is counted and
	// before a fresh session is registered: one whose reply JSON cannot
	// carry is refused as invalid input.
	var reply SolveResponse
	if runErr == nil {
		reply, runErr = answerReply(sess.req, &core.SolveResult{Result: res.Result, Tier: core.TierExact})
	}
	obs.ObserveDurationExemplar("server.delta.duration", elapsed.Nanoseconds(), obs.TraceIDFrom(ctx))
	obs.Inc("server.delta.outcome." + guard.Class(runErr))
	obs.Annotate(ctx, "outcome", guard.Class(runErr))
	if runErr != nil {
		return DeltaResponse{}, runErr
	}

	// Register a fresh session only now, after its first solve succeeded:
	// the client is about to receive the id, so the slot can never be
	// orphaned by a failed create.
	if created {
		s.sessions.add(sess)
	}

	// The reuse ledger, globally: lookups == reused + resolved holds per
	// response and therefore for the counters in aggregate — the ecosoak
	// gate's closing identity.
	obs.Add("server.delta.reused", res.Reused)
	obs.Add("server.delta.resolved", res.Resolved)
	obs.Add("server.delta.lookups", res.Lookups)
	obs.Add("server.delta.edits.applied", int64(len(req.edits)))
	obs.Annotate(ctx, "session", sess.id)

	reply.ElapsedMS = elapsedMS(elapsed)
	return DeltaResponse{
		SolveResponse: reply,
		SessionID:     sess.id,
		Created:       created,
		EditsApplied:  len(req.edits),
		Nodes:         res.Tree.Len(),
		Reused:        res.Reused,
		Resolved:      res.Resolved,
		Lookups:       res.Lookups,
	}, nil
}

// createSession builds the worked tree exactly as /solve would (clone,
// segment, insert a root candidate, binarize) and pins it in a new
// session, so a delta session's answers match what /solve says about the
// same net, byte for byte. The session is NOT yet registered in the
// store — the caller registers it only after its first solve succeeds,
// so a create killed by a fault or a budget never orphans a store slot.
func (s *Server) createSession(req *deltaRequest) (*serverSession, error) {
	work, err := s.workTree(req.create)
	if err != nil {
		return nil, err
	}
	work.Binarize()
	sess, err := core.NewSession(core.Problem{
		Tree:       work,
		Library:    buffers.DefaultLibrary(req.create.bufNM),
		Params:     req.create.params,
		Objective:  req.objective,
		MaxBuffers: req.k,
	}, core.SessionConfig{
		MemoEntries: s.cfg.SessionMemoEntries,
		MemoBytes:   s.cfg.SessionMemoBytes,
		Namespace:   "server.delta.memo",
	})
	if err != nil {
		return nil, err
	}
	return &serverSession{sess: sess, req: req.create, objective: req.objective}, nil
}

// decodeDelta parses one /solve/delta body: a JSON envelope carrying
// either a net (create) or a session id (continue), plus an optional
// edit stream.
func (s *Server) decodeDelta(r *http.Request) (*deltaRequest, error) {
	if !isJSON(r.Header.Get("Content-Type")) {
		return nil, invalidf("/solve/delta takes an application/json v2 envelope")
	}
	if err := checkQuery(r.URL.Query()); err != nil {
		return nil, err
	}
	body, err := s.readBody(r)
	if err != nil {
		return nil, err
	}
	env, err := s.decodeEnvelope(body)
	if err != nil {
		return nil, err
	}

	req := &deltaRequest{}
	if env.Session != nil {
		req.sessionID = env.Session.ID
	}
	switch {
	case req.sessionID == "" && env.Net == "":
		return nil, invalidf(`delta needs a "session" id or a "net" to create one`)
	case req.sessionID != "" && env.Net != "":
		return nil, invalidf(`delta takes "session" or "net", not both (a session's net changes only through edits)`)
	}

	if req.sessionID == "" {
		// A create decodes exactly as /solve does; its knobs become the
		// session's own.
		create, err := s.requestFromEnvelope(env)
		if err != nil {
			return nil, err
		}
		req.create = create
		// The session's objective: a single Optimize objective, never the
		// degradation ladder (a degraded answer would poison the memo's
		// exactness contract). Default to the paper's tool configuration.
		req.objective = core.MinBuffersNoise
		if create.objective != nil {
			req.objective = *create.objective
			req.k = create.k
		}
	} else {
		// A continue validates its knobs as /solve would and keeps the
		// call knobs it set; the session supplies the rest.
		kn := s.newSolveRequest()
		if err := applyEnvelope(kn, env); err != nil {
			return nil, err
		}
		if err := s.clampAndCheck(kn); err != nil {
			return nil, err
		}
		if o := env.Options; o != nil {
			if o.TimeoutMS != nil && *o.TimeoutMS > 0 {
				req.timeout = kn.timeout
			}
			if o.MaxCands != nil && *o.MaxCands > 0 {
				req.maxCands = kn.maxCands
			}
		}
	}

	req.edits, err = s.convertEdits(env.Edits)
	if err != nil {
		return nil, err
	}
	return req, nil
}

// convertEdits maps wire-format edits onto core edits, parsing graft
// subtrees under the server's netfmt limits.
func (s *Server) convertEdits(envEdits []EditEnvelope) ([]core.Edit, error) {
	if len(envEdits) == 0 {
		return nil, nil
	}
	edits := make([]core.Edit, 0, len(envEdits))
	for i, ee := range envEdits {
		op, err := core.ParseEditOp(ee.Op)
		if err != nil {
			return nil, invalidf("edit %d: unknown op %q", i, ee.Op)
		}
		e := core.Edit{Op: op, Node: rctree.NodeID(ee.Node)}
		switch op {
		case core.EditSetCap, core.EditSetRAT:
			if ee.Value == nil {
				return nil, invalidf(`edit %d (%s) missing "value"`, i, ee.Op)
			}
			e.Value = *ee.Value
		case core.EditSetWire:
			if ee.Wire == nil {
				return nil, invalidf(`edit %d (set-wire) missing "wire"`, i)
			}
			e.Wire = rctree.Wire{R: ee.Wire.R, C: ee.Wire.C, Length: ee.Wire.Length}
		case core.EditGraft:
			if ee.Sub == "" {
				return nil, invalidf(`edit %d (graft) missing "sub" (netfmt text)`, i)
			}
			sub, err := netfmt.ReadLimited(strings.NewReader(ee.Sub), s.cfg.Limits)
			if err != nil {
				if errors.Is(err, guard.ErrBudgetExceeded) {
					return nil, err
				}
				return nil, invalidf("edit %d (graft) sub: %v", i, err)
			}
			e.Sub = sub
			if ee.Wire != nil {
				e.Wire = rctree.Wire{R: ee.Wire.R, C: ee.Wire.C, Length: ee.Wire.Length}
			}
		case core.EditPrune:
			// Node alone suffices.
		}
		edits = append(edits, e)
	}
	return edits, nil
}
