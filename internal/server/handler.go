package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"time"

	"buffopt/internal/buffers"
	"buffopt/internal/core"
	"buffopt/internal/elmore"
	"buffopt/internal/faultinject"
	"buffopt/internal/guard"
	"buffopt/internal/noise"
	"buffopt/internal/obs"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

// SolveResponse is the 200 body of POST /solve.
type SolveResponse struct {
	// Net echoes the net's name.
	Net string `json:"net"`
	// Tier names the degradation-ladder rung that produced the answer.
	Tier string `json:"tier"`
	// Degraded reports that at least one stronger tier failed first.
	Degraded bool `json:"degraded"`
	// TierErrors records, in ladder order, why each stronger tier failed.
	TierErrors []TierFailure `json:"tier_errors,omitempty"`
	// Buffers lists the inserted buffers.
	Buffers []BufferPlacement `json:"buffers"`
	// NumBuffers is len(Buffers), for clients that skip the list.
	NumBuffers int `json:"num_buffers"`
	// SlackPS is the optimizer's worst timing slack, picoseconds.
	SlackPS float64 `json:"slack_ps"`
	// MaxDelayPS is the analyzed worst source-to-sink delay, picoseconds.
	MaxDelayPS float64 `json:"max_delay_ps"`
	// NoiseViolations counts sinks still violating their noise margin.
	NoiseViolations int `json:"noise_violations"`
	// MaxNoiseV is the analyzed worst-case coupled noise, volts.
	MaxNoiseV float64 `json:"max_noise_v"`
	// Cached reports that the answer came from the server's result cache
	// without running a solve. Cached answers are bit-identical to fresh
	// ones (the solver is deterministic); the flag is telemetry.
	Cached bool `json:"cached"`
	// Coalesced reports that the request missed the cache but shared a
	// concurrent identical request's in-flight solve.
	Coalesced bool `json:"coalesced,omitempty"`
	// ElapsedMS is the server-side wall time of the solve, milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// TierFailure is one failed ladder rung in a response.
type TierFailure struct {
	// Tier is the rung that failed.
	Tier string `json:"tier"`
	// Class is the guard taxonomy class of the failure ("budget",
	// "canceled", "panic", "internal", ...).
	Class string `json:"class"`
	// ElapsedMS is how long the rung ran before failing.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Detail is the human-readable failure, including budget usage.
	Detail string `json:"detail"`
}

// BufferPlacement is one inserted buffer in a response.
type BufferPlacement struct {
	// Node is the tree node the buffer sits at.
	Node int `json:"node"`
	// Name is the library buffer type.
	Name string `json:"name"`
	// XMM, YMM are the node's placement, millimeters.
	XMM float64 `json:"x_mm"`
	YMM float64 `json:"y_mm"`
}

// ErrorResponse is the body of every non-200 /solve response.
type ErrorResponse struct {
	// Error is the failure, human-readable.
	Error string `json:"error"`
	// Class is the guard taxonomy class ("invalid", "canceled", ...),
	// or "shed" for admission-control rejections.
	Class string `json:"class"`
	// Status echoes the HTTP status code.
	Status int `json:"status"`
	// RetryAfterS, when non-zero, is the shed-retry hint in seconds
	// (the Retry-After header carries the same value).
	RetryAfterS int64 `json:"retry_after_s,omitempty"`
}

// handleSolve is POST /solve: admission, decode, bounded solve, report.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "invalid", "POST a net to /solve", 0)
		return
	}
	obs.Inc("server.requests")

	// Root span for this process: adopt the router's trace when the
	// request carries a traceparent header, start a fresh one for direct
	// traffic. The trace ID is echoed so clients can quote it back at
	// /debug/trace/<id>.
	ctx, span := s.tracer.StartTrace(r.Context(), "server.request", obs.TraceParentFrom(r.Header))
	defer span.End()
	w.Header().Set("X-Trace-Id", span.TraceID().String())

	// Admission first, decode second: shed requests cost a connection
	// and a few stack frames, never a parsed net.
	release, err := s.admit(ctx)
	if err != nil {
		s.shed(w, err)
		return
	}
	defer release()

	body, err := s.readBody(r)
	var req *solveRequest
	if err == nil {
		req, err = s.decodeSolve(r.Header.Get("Content-Type"), r.URL.Query(), body)
	}
	if err != nil {
		obs.Inc("server.decode.rejected")
		writeError(w, decodeStatus(err), guard.Class(err), err.Error(), 0)
		return
	}

	resp, solveErr := s.solveAdmitted(ctx, req, "server.request")
	if solveErr != nil {
		writeError(w, guard.HTTPStatus(solveErr), guard.Class(solveErr), solveErr.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// solveAdmitted runs one admitted, decoded request under its deadline and
// chaos plan, recording outcome/tier/duration telemetry under ns
// ("server.request" for /solve, "server.batch.item" for batch items so
// the two traffic classes stay separately accounted). Shared by /solve
// and every fanned-out /solve/batch item.
func (s *Server) solveAdmitted(ctx context.Context, req *solveRequest, ns string) (SolveResponse, error) {
	// The request context: the client hanging up cancels the solve; the
	// per-request deadline bounds it either way.
	ctx, cancel := context.WithTimeout(ctx, req.timeout)
	defer cancel()

	start := time.Now()
	var (
		res   *core.SolveResult
		reply *SolveResponse
	)
	solveErr := guard.Safe("server.solve", func() error {
		var e error
		res, reply, e = s.solveCached(ctx, req)
		return e
	})
	elapsed := time.Since(start)
	obs.ObserveDurationExemplar(ns+".duration", elapsed.Nanoseconds(), obs.TraceIDFrom(ctx))
	obs.Inc(ns + ".outcome." + guard.Class(solveErr))
	obs.Annotate(ctx, "outcome", guard.Class(solveErr))

	if solveErr != nil {
		return SolveResponse{}, solveErr
	}
	obs.Inc(ns + ".tier." + res.Tier.String())
	obs.Annotate(ctx, "tier", res.Tier.String())
	// Tier-failure telemetry counts ladder runs, not answers: a cached or
	// coalesced response replays the stored tier metadata to its client
	// but must not double-count the one solve that earned it, or the soak
	// equality (tiererr counters == injector consumed totals) breaks.
	if !res.Cached && !res.Coalesced {
		for _, te := range res.TierErrors {
			obs.Inc(ns + ".tiererr." + guard.Class(te.Err))
		}
	}
	if reply == nil {
		// A hit or a coalesced waiter: the stored answer's reply passed
		// answerReply when it was filled.
		r, err := answerReply(req, res)
		if err != nil {
			return SolveResponse{}, err
		}
		reply = &r
	}
	resp := *reply
	resp.Cached, resp.Coalesced, resp.ElapsedMS = res.Cached, res.Coalesced, elapsedMS(elapsed)
	return resp, nil
}

// solveCached runs one request through the result cache when one is
// configured, or straight through the solver stack when not. The chaos
// plan (if an injector is configured) is drawn inside the fill — where a
// solve actually runs — so cache hits and coalesced waiters consume no
// plan and the injector's assigned==consumed books stay exact. An answer
// this call solves or peer-fills is shaped for the wire (answerReply)
// before it is cached: one whose reply JSON cannot carry is refused as
// invalid input and never stored. That reply is returned with the
// answer; a hit or a coalesced waiter gets nil.
func (s *Server) solveCached(ctx context.Context, req *solveRequest) (*core.SolveResult, *SolveResponse, error) {
	var reply *SolveResponse
	check := func(r *core.SolveResult) error {
		rp, err := answerReply(req, r)
		reply = &rp
		return err
	}
	if s.cache == nil {
		r, err := s.solveOne(faultinject.WithPlan(ctx, s.cfg.Injector.Assign()), req)
		if err == nil {
			err = check(r)
		}
		if err != nil {
			return nil, nil, err
		}
		return r, reply, nil
	}
	key := s.cacheKey(req)
	res, out, err := s.cache.Do(ctx, key, func() (*core.SolveResult, bool, error) {
		// Shared cache tier: before paying for a solve, ask the key's
		// sibling for a cached copy. A peer-filled result is exact by
		// codec construction, so it is cacheable here verbatim; a fault
		// plan is still assigned only when a solve actually runs.
		if pr := s.peerFill(ctx, key); pr != nil {
			if e := check(pr); e != nil {
				return nil, false, e
			}
			return pr, true, nil
		}
		r, e := s.solveOne(faultinject.WithPlan(ctx, s.cfg.Injector.Assign()), req)
		if e == nil {
			e = check(r)
		}
		if e != nil {
			return nil, false, e
		}
		return r, core.Cacheable(r), nil
	})
	if err != nil {
		return nil, nil, err
	}
	// The cache hands every caller the one stored answer, read-only: the
	// per-request flags go on a copy of its header.
	r := *res
	r.Cached, r.Coalesced = out.Hit, out.Coalesced
	return &r, reply, nil
}

// cacheKey derives the request's content-addressed cache key. It hashes
// the raw (pre-segmenting) tree via the problem's canonical hash, so two
// textually different posts of the same net share an entry; the
// segmenting length is mixed in separately because segmentation
// deterministically reshapes the worked tree. The budget caps the worker
// would apply are reconstructed so requests with different effective
// max_cands never share an entry (a starved ladder deterministically
// lands on a different, degraded answer). Objective requests key under
// OptimizeCacheKey, which exposes the objective and k and ignores caps
// (for Optimize, caps only abort — they never change a success).
func (s *Server) cacheKey(req *solveRequest) string {
	p := core.Problem{
		Tree:      req.tree,
		Library:   buffers.DefaultLibrary(req.bufNM),
		Params:    req.params,
		Objective: core.MinBuffersNoise,
	}
	var base string
	if req.objective != nil {
		p.Objective = *req.objective
		p.MaxBuffers = req.k
		base = core.OptimizeCacheKey(p, core.Options{})
	} else {
		base = core.SolveCacheKey(p, core.Options{Budget: s.budget(context.Background(), req.maxCands)})
	}
	return base + "/seglen:" + strconv.FormatUint(math.Float64bits(req.segLen), 16)
}

// solveOne runs one admitted, decoded request through the solver stack:
// the degradation ladder by default, or a single core.Optimize objective
// when the envelope's "problem" selected one.
func (s *Server) solveOne(ctx context.Context, req *solveRequest) (*core.SolveResult, error) {
	if faultinject.Take(ctx, faultinject.FaultPanic) {
		panic(faultinject.ErrInjected)
	}
	work, err := s.workTree(req)
	if err != nil {
		return nil, err
	}
	b := s.budget(ctx, req.maxCands)
	lib := buffers.DefaultLibrary(req.bufNM)
	if req.objective == nil {
		return core.Solve(ctx, work, lib, req.params, core.Options{Budget: b})
	}
	res, err := core.Optimize(ctx, core.Problem{
		Tree:       work,
		Library:    lib,
		Params:     req.params,
		Objective:  *req.objective,
		MaxBuffers: req.k,
	}, core.Options{Budget: b})
	if err != nil {
		return nil, err
	}
	// Objective answers have no ladder: they are exact by construction,
	// wrapped so the response/caching path is uniform.
	return &core.SolveResult{Result: res, Tier: core.TierExact}, nil
}

// budget is the one place a request's solve budget is built: bound to
// ctx, capped at maxCands candidates and the server's tree-size limit.
func (s *Server) budget(ctx context.Context, maxCands int) *guard.Budget {
	b := guard.New(ctx)
	b.MaxCandidates = maxCands
	b.MaxTreeNodes = s.cfg.Limits.MaxNodes
	return b
}

// workTree is the tree a request is solved on: a clone of the posted net,
// segmented to the request's seglen with a buffer site inserted below the
// driver.
func (s *Server) workTree(req *solveRequest) (*rctree.Tree, error) {
	work := req.tree.Clone()
	if req.segLen > 0 {
		if _, err := segment.ByLength(work, req.segLen); err != nil {
			return nil, err
		}
		if _, err := work.InsertBelow(work.Root()); err != nil {
			return nil, err
		}
	}
	return work, nil
}

// errUnencodable is the class of an answer whose reply holds a number
// JSON cannot carry.
var errUnencodable = fmt.Errorf("server: the answer's reply is out of range: %w", guard.ErrInvalidInput)

// answerReply shapes a SolveResult for the wire: every field but the
// per-request ones (Cached, Coalesced, ElapsedMS). It refuses, as invalid input, an answer
// whose reply would hold a non-finite number, which JSON cannot carry:
// finite inputs can still overflow once scaled, as a required arrival
// time past ~1.8e296 s does in slack_ps.
func answerReply(req *solveRequest, res *core.SolveResult) (SolveResponse, error) {
	after := noise.Analyze(res.Tree, res.Buffers, req.params)
	timing := elmore.Analyze(res.Tree, res.Buffers)

	resp := SolveResponse{
		Net:             req.tree.Node(req.tree.Root()).Name,
		Tier:            res.Tier.String(),
		Degraded:        res.Degraded,
		Buffers:         []BufferPlacement{},
		NumBuffers:      res.NumBuffers(),
		SlackPS:         res.Slack * 1e12,
		MaxDelayPS:      timing.MaxDelay * 1e12,
		NoiseViolations: len(after.Violations),
		MaxNoiseV:       after.MaxNoise,
	}
	for _, te := range res.TierErrors {
		resp.TierErrors = append(resp.TierErrors, TierFailure{
			Tier:      te.Tier.String(),
			Class:     guard.Class(te.Err),
			ElapsedMS: elapsedMS(te.Elapsed),
			Detail:    te.Error(),
		})
	}
	ids := make([]rctree.NodeID, 0, len(res.Buffers))
	for v := range res.Buffers {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ok := finite(resp.SlackPS) && finite(resp.MaxDelayPS) && finite(resp.MaxNoiseV)
	for _, v := range ids {
		n := res.Tree.Node(v)
		p := BufferPlacement{
			Node: int(v),
			Name: res.Buffers[v].Name,
			XMM:  n.X * 1e3,
			YMM:  n.Y * 1e3,
		}
		ok = ok && finite(p.XMM) && finite(p.YMM)
		resp.Buffers = append(resp.Buffers, p)
	}
	if !ok {
		return resp, fmt.Errorf("%w: slack %g ps, delay %g ps, noise %g V", errUnencodable, resp.SlackPS, resp.MaxDelayPS, resp.MaxNoiseV)
	}
	return resp, nil
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// elapsedMS is d in the replies' milliseconds.
func elapsedMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// shedResponse maps an admission rejection to its wire shape: 429 for a
// full queue, 503 for drain, 503 for a client that vanished while queued
// (it will rarely see the answer anyway). Used directly by /solve and
// per-item by /solve/batch.
func (s *Server) shedResponse(err error) (int, ErrorResponse) {
	status := http.StatusServiceUnavailable
	if errors.Is(err, errOverloaded) {
		status = http.StatusTooManyRequests
	}
	return status, ErrorResponse{
		Error:       err.Error(),
		Class:       "shed",
		Status:      status,
		RetryAfterS: s.retryAfterSeconds(),
	}
}

// retryAfterSeconds renders the shed-retry hint: the configured base plus
// bounded jitter, so the clients shed by one overload spike — now
// including the fleet router's retry loop — do not all come back on the
// same second and re-spike the queue in lockstep. The value stays in
// [base, base + max(1, base/2)]: never below the configured hint (the
// contract clients plan around), never more than ~1.5× above it (the
// hint stays honest). Each draw is independent, which is what de-phases
// the herd.
func (s *Server) retryAfterSeconds() int64 {
	base := int64(s.cfg.RetryAfter / time.Second)
	if base < 1 {
		base = 1
	}
	spread := base / 2
	if spread < 1 {
		spread = 1
	}
	return base + rand.Int64N(spread+1)
}

// shed writes the admission-control rejection for err, with Retry-After.
func (s *Server) shed(w http.ResponseWriter, err error) {
	status, body := s.shedResponse(err)
	w.Header().Set("Retry-After", strconv.FormatInt(body.RetryAfterS, 10))
	writeJSON(w, status, body)
}

// handleHealthz is liveness: 200 for as long as the process serves HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// handleReadyz is readiness: 200 while accepting work, 503 (with
// Retry-After) while draining or while the wait queue is full, so load
// balancers steer away before requests bounce off 429s.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readyz struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
	}
	switch {
	case s.draining.Load():
		w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSeconds(), 10))
		writeJSON(w, http.StatusServiceUnavailable, readyz{Ready: false, Reason: "draining"})
	case s.saturated():
		w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSeconds(), 10))
		writeJSON(w, http.StatusServiceUnavailable, readyz{Ready: false, Reason: "overloaded"})
	default:
		writeJSON(w, http.StatusOK, readyz{Ready: true})
	}
}

// handleMetrics dumps the obs registry snapshot as JSON — the same
// payload the CLIs' -metrics flag writes, served live.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	obs.Default().WriteJSON(w)
}

// WriteJSON sends body as a compact JSON reply with a trailing newline.
// The body is marshalled whole before the status goes out, then written
// in one call under its Content-Length, never as a chunked stream. A body
// encoding/json refuses (a non-finite number) is answered 500 class
// internal instead of an empty 200, and counted as <ns>.encode.failed:
// ns is the answering layer, "server" for a replica, "fleet" for the
// router.
func WriteJSON(w http.ResponseWriter, status int, body any, ns string) {
	b, err := json.Marshal(body)
	if err != nil {
		obs.Inc(ns + ".encode.failed")
		status = http.StatusInternalServerError
		// An ErrorResponse holds only strings and integers: it encodes.
		b, _ = json.Marshal(ErrorResponse{Error: ns + ": encode reply: " + err.Error(), Class: "internal", Status: status})
	}
	b = append(b, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	WriteJSON(w, status, body, "server")
}

func writeError(w http.ResponseWriter, status int, class, msg string, retryAfterS int64) {
	writeJSON(w, status, ErrorResponse{
		Error:       msg,
		Class:       class,
		Status:      status,
		RetryAfterS: retryAfterS,
	})
}
