package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"buffopt/internal/core"
	"buffopt/internal/guard"
	"buffopt/internal/netfmt"
	"buffopt/internal/noise"
	"buffopt/internal/rctree"
	"buffopt/internal/segment"
)

// solveRequest is one decoded, validated request, ready for the worker.
type solveRequest struct {
	tree     *rctree.Tree
	timeout  time.Duration
	maxCands int
	params   noise.Params
	bufNM    float64
	segLen   float64
	// objective, when non-nil, routes the request to core.Optimize with
	// that single objective instead of the core.Solve degradation ladder
	// (the default). Set only from a v1 envelope's "problem" sub-object.
	objective *core.Objective
	// k is the optional buffer-count bound for objective requests.
	k *int
}

// engineNames are the merge-engine names older clients may still send as
// "options.engine" or ?engine=. The solver picks its merge path from the
// problem, so a listed name is accepted and changes nothing — not the
// answer, not the cache key; any other name stays a 400.
var engineNames = map[string]bool{"vg": true, "lishi": true, "auto": true}

// checkEngine validates an optional engine name against engineNames.
func checkEngine(name string) error {
	if name != "" && !engineNames[name] {
		return invalidf("unknown engine %q (want vg, lishi, or auto; the solver picks its merge path itself)", name)
	}
	return nil
}

// UnsupportedVersionError is the typed decode failure for an envelope
// whose "v" names a version this server does not speak. It unwraps to
// guard.ErrInvalidInput, so it maps to HTTP 400 with class "invalid".
type UnsupportedVersionError struct {
	// Version is the version the client asked for.
	Version int
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("server: unsupported envelope version %d (this server speaks v1 and v2)", e.Version)
}

func (e *UnsupportedVersionError) Unwrap() error { return guard.ErrInvalidInput }

// Solver physics defaults, matching cmd/buffopt's flags.
const (
	defaultLambda = 0.7
	defaultRise   = 0.25e-9
	defaultVdd    = 1.8
	defaultBufNM  = 0.8
	defaultSegLen = 0.5e-3
)

// invalidf builds a client-error (class "invalid") decode failure.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("server: "+format+": %w", append(args, guard.ErrInvalidInput)...)
}

// decodeRequest parses one request body: an application/json envelope, or
// raw netfmt text (any other content type) with knobs in the query string
// (?timeout_ms=, ?max_cands=). The body is read under cfg.MaxBytes and
// the net under cfg.Limits, so an oversized payload is rejected before an
// oversized structure is built. All errors wrap a guard sentinel:
// ErrInvalidInput for malformed payloads (400), ErrBudgetExceeded for
// oversized ones (413).
func (s *Server) decodeRequest(r *http.Request) (*solveRequest, error) {
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBytes)
	if isJSON(r.Header.Get("Content-Type")) {
		var env Envelope
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			if oversized(err) {
				return nil, fmt.Errorf("server: request body exceeds %d bytes: %w", s.cfg.MaxBytes, guard.ErrBudgetExceeded)
			}
			return nil, invalidf("malformed JSON request: %v", err)
		}
		return s.requestFromEnvelope(&env)
	}

	req := s.newSolveRequest()
	if err := applyQuery(req, r.URL.Query()); err != nil {
		return nil, err
	}
	return s.finishDecode(req, body)
}

// newSolveRequest starts a request at the server's defaults.
func (s *Server) newSolveRequest() *solveRequest {
	return &solveRequest{
		timeout:  s.cfg.DefaultTimeout,
		maxCands: s.cfg.MaxCands,
		params:   noise.Params{CouplingRatio: defaultLambda, Slope: defaultVdd / defaultRise},
		bufNM:    defaultBufNM,
		segLen:   defaultSegLen,
	}
}

// requestFromEnvelope builds a validated request from one JSON envelope —
// the unit of decoding shared by /solve's JSON path, every item of a
// /solve/batch request, and the fleet router's affinity Keyer. Both
// envelope versions land here; the session fields are /solve/delta's
// alone.
func (s *Server) requestFromEnvelope(env *Envelope) (*solveRequest, error) {
	ver, err := env.Version()
	if err != nil {
		return nil, err
	}
	if env.Session != nil || len(env.Edits) > 0 {
		return nil, invalidf(`"session"/"edits" are incremental-solve fields; POST them to /solve/delta`)
	}
	if env.Net == "" {
		return nil, invalidf(`JSON request missing "net"`)
	}
	req := s.newSolveRequest()
	if err := applyEnvelope(req, env, ver); err != nil {
		return nil, err
	}
	return s.finishDecode(req, strings.NewReader(env.Net))
}

// finishDecode parses and validates the netfmt text, completing a request.
func (s *Server) finishDecode(req *solveRequest, netText io.Reader) (*solveRequest, error) {
	tr, err := netfmt.ReadLimited(netText, s.cfg.Limits)
	if err != nil {
		if oversized(err) {
			return nil, fmt.Errorf("server: net exceeds the configured size limits: %w: %w", err, guard.ErrBudgetExceeded)
		}
		if errors.Is(err, guard.ErrBudgetExceeded) {
			return nil, err // netfmt node/aggressor limit: already the right class
		}
		return nil, invalidf("unreadable net: %v", err)
	}
	// netfmt validates structurally; re-validate so a reader bug cannot
	// push a malformed tree into a worker (same belt-and-braces as the
	// CLIs).
	if err := tr.Validate(); err != nil {
		return nil, invalidf("net failed validation: %v", err)
	}
	req.tree = tr
	// A seglen that would segment the net past the node limit is
	// oversized input: refused here, before any split, rather than as a
	// solve-time budget failure from segment.ByLength's own cap.
	if req.segLen > 0 {
		limit := s.cfg.Limits.MaxNodes
		if limit <= 0 || limit > segment.MaxNodes {
			limit = segment.MaxNodes
		}
		if n := segment.Size(tr, req.segLen); n > float64(limit) {
			return nil, fmt.Errorf("server: seglen %g would segment the net to %g nodes (cap %d): %w",
				req.segLen, n, limit, guard.ErrBudgetExceeded)
		}
	}
	return req, s.clampAndCheck(req)
}

// applyEnvelope copies the envelope's knobs into the request, reading
// them from the place version ver puts them (top-level for v1, "options"
// for v2). The validation is shared, so the two shapes accept exactly
// the same values.
func applyEnvelope(req *solveRequest, env *Envelope, ver int) error {
	k := env.knobs(ver)
	if k.timeoutMS < 0 {
		return invalidf("timeout_ms = %d is negative", k.timeoutMS)
	}
	if k.timeoutMS > 0 {
		req.timeout = time.Duration(k.timeoutMS) * time.Millisecond
	}
	if k.maxCands < 0 {
		return invalidf("max_cands = %d is negative", k.maxCands)
	}
	if k.maxCands > 0 {
		req.maxCands = k.maxCands
	}
	lambda, rise, vdd := defaultLambda, defaultRise, defaultVdd
	if k.lambda != nil {
		lambda = *k.lambda
	}
	if k.rise != nil {
		rise = *k.rise
	}
	if k.vdd != nil {
		vdd = *k.vdd
	}
	if rise <= 0 || math.IsNaN(rise) || math.IsInf(rise, 0) {
		return invalidf("rise = %g must be positive and finite", rise)
	}
	if math.IsNaN(lambda) || math.IsNaN(vdd) || math.IsInf(lambda, 0) || math.IsInf(vdd, 0) {
		return invalidf("lambda/vdd must be finite")
	}
	req.params = noise.Params{CouplingRatio: lambda, Slope: vdd / rise}
	if k.bufNM != nil {
		req.bufNM = *k.bufNM
	}
	if k.segLen != nil {
		req.segLen = *k.segLen
	}
	if math.IsNaN(req.segLen) || math.IsInf(req.segLen, 0) || req.segLen < 0 {
		return invalidf("seglen = %g must be non-negative and finite", req.segLen)
	}
	if err := checkEngine(k.engine); err != nil {
		return err
	}
	return applyProblem(req, env.Problem)
}

// applyProblem copies an envelope's "problem" sub-object into the
// request, validating the objective/k combination at decode time so a
// bad combination is a decode rejection, not a wasted worker slot.
func applyProblem(req *solveRequest, pe *ProblemEnvelope) error {
	if pe == nil {
		return nil
	}
	if pe.Objective == "" {
		return invalidf(`"problem" missing "objective"`)
	}
	obj, err := core.ParseObjective(pe.Objective)
	if err != nil {
		return err
	}
	if pe.K != nil {
		if *pe.K < 0 {
			return invalidf("problem k = %d is negative", *pe.K)
		}
		if obj == core.MinBuffersNoise {
			return invalidf("problem k is invalid with objective %q (it computes the bound)", pe.Objective)
		}
		k := *pe.K
		req.k = &k
	}
	req.objective = &obj
	return nil
}

// applyQuery copies the raw-netfmt path's query knobs into the request.
// It takes the values rather than the request so the fleet router's Keyer
// can share it without synthesizing an *http.Request.
func applyQuery(req *solveRequest, q url.Values) error {
	if v := q.Get("timeout_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			return invalidf("query timeout_ms=%q", v)
		}
		if ms > 0 {
			req.timeout = time.Duration(ms) * time.Millisecond
		}
	}
	if v := q.Get("max_cands"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return invalidf("query max_cands=%q", v)
		}
		if n > 0 {
			req.maxCands = n
		}
	}
	return checkEngine(q.Get("engine"))
}

// clampAndCheck applies the server-side bounds a client may not exceed.
func (s *Server) clampAndCheck(req *solveRequest) error {
	if req.timeout > s.cfg.MaxTimeout {
		req.timeout = s.cfg.MaxTimeout
	}
	if s.cfg.MaxCands > 0 && (req.maxCands == 0 || req.maxCands > s.cfg.MaxCands) {
		req.maxCands = s.cfg.MaxCands
	}
	return nil
}

// isJSON reports whether the content type names a JSON payload.
func isJSON(ct string) bool {
	ct = strings.TrimSpace(strings.SplitN(ct, ";", 2)[0])
	return strings.EqualFold(ct, "application/json")
}

// oversized reports whether err means "the body/net was too large":
// http.MaxBytesReader tripping.
func oversized(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}
