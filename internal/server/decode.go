package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"buffopt/internal/buffers"
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
	// (the default). Set only from an envelope's "problem" sub-object.
	objective *core.Objective
	// k is the optional buffer-count bound for objective requests.
	k *int
}

// UnsupportedVersionError is the typed decode failure for an envelope
// whose "v" names a version this server does not speak. It unwraps to
// guard.ErrInvalidInput, so it maps to HTTP 400 with class "invalid".
type UnsupportedVersionError struct {
	// Version is the version the client asked for.
	Version int
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf(`server: unsupported envelope version %d (this server speaks v2: set "v": 2 or omit it)`, e.Version)
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

// readBody reads a request body into memory, one byte past cfg.MaxBytes
// at most: enough for the decoders to tell an oversized body (413) from
// one that fits.
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBytes+1))
	if err != nil {
		return nil, invalidf("unreadable request body: %v", err)
	}
	return body, nil
}

// checkSize rejects a body larger than cfg.MaxBytes (413, class
// "budget").
func (s *Server) checkSize(body []byte) error {
	if int64(len(body)) > s.cfg.MaxBytes {
		return fmt.Errorf("server: request body exceeds %d bytes: %w", s.cfg.MaxBytes, guard.ErrBudgetExceeded)
	}
	return nil
}

// decodeSolve decodes one /solve body: an application/json envelope
// (decodeJSON), or raw netfmt text (any other content type) with knobs
// in the query string (?timeout_ms=, ?max_cands=). The handler and the
// fleet router's Keyer both call it, so a replica's cache key and the
// router's affinity key come from one decoder. The net is read under
// cfg.Limits, so an oversized payload is rejected before an oversized
// structure is built. All errors wrap a guard sentinel: ErrInvalidInput
// for malformed payloads (400), ErrBudgetExceeded for oversized ones
// (413).
func (s *Server) decodeSolve(contentType string, query url.Values, body []byte) (*solveRequest, error) {
	if isJSON(contentType) {
		if err := checkQuery(query); err != nil {
			return nil, err
		}
		return s.decodeJSON(body)
	}
	if err := s.checkSize(body); err != nil {
		return nil, err
	}
	req := s.newSolveRequest()
	if err := applyQuery(req, query); err != nil {
		return nil, err
	}
	return s.finishDecode(req, bytes.NewReader(body))
}

// decodeJSON decodes one solve envelope: a /solve JSON body or one
// /solve/batch item. The session fields are /solve/delta's alone.
func (s *Server) decodeJSON(body []byte) (*solveRequest, error) {
	env, err := s.decodeEnvelope(body)
	if err != nil {
		return nil, err
	}
	if env.Session != nil || len(env.Edits) > 0 {
		return nil, invalidf(`"session"/"edits" are incremental-solve fields; POST them to /solve/delta`)
	}
	return s.requestFromEnvelope(env)
}

// decodeEnvelope is the one JSON decoder every post goes through: at
// most cfg.MaxBytes (413 past it), no unknown fields, version 2.
func (s *Server) decodeEnvelope(body []byte) (*Envelope, error) {
	if err := s.checkSize(body); err != nil {
		return nil, err
	}
	var env Envelope
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		// A body in another version's shape trips on that shape's
		// fields: name the version, not the first strange field.
		var ver struct {
			V *int `json:"v"`
		}
		if json.Unmarshal(body, &ver) == nil && ver.V != nil && *ver.V != 2 {
			return nil, &UnsupportedVersionError{Version: *ver.V}
		}
		return nil, invalidf("malformed JSON request: %v", err)
	}
	if env.V != nil && *env.V != 2 {
		return nil, &UnsupportedVersionError{Version: *env.V}
	}
	return &env, nil
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

// requestFromEnvelope builds a validated request from one decoded
// envelope's net, knobs and problem: the unit shared by decodeJSON and
// the create half of /solve/delta.
func (s *Server) requestFromEnvelope(env *Envelope) (*solveRequest, error) {
	if env.Net == "" {
		return nil, invalidf(`JSON request missing "net"`)
	}
	req := s.newSolveRequest()
	if err := applyEnvelope(req, env); err != nil {
		return nil, err
	}
	return s.finishDecode(req, strings.NewReader(env.Net))
}

// finishDecode parses and validates the netfmt text, completing a request.
func (s *Server) finishDecode(req *solveRequest, netText io.Reader) (*solveRequest, error) {
	tr, err := netfmt.ReadLimited(netText, s.cfg.Limits)
	if err != nil {
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

// applyEnvelope copies the envelope's knobs ("options") and problem into
// the request, validating every value at decode time: a knob the solver
// would refuse is a decode rejection, not a wasted worker slot.
func applyEnvelope(req *solveRequest, env *Envelope) error {
	o := env.Options
	if o == nil {
		o = &OptionsEnvelope{}
	}
	if t := o.TimeoutMS; t != nil {
		if *t < 0 {
			return invalidf("timeout_ms = %d is negative", *t)
		}
		if *t > 0 {
			req.timeout = time.Duration(*t) * time.Millisecond
		}
	}
	if n := o.MaxCands; n != nil {
		if *n < 0 {
			return invalidf("max_cands = %d is negative", *n)
		}
		if *n > 0 {
			req.maxCands = *n
		}
	}
	lambda, rise, vdd := defaultLambda, defaultRise, defaultVdd
	if o.Lambda != nil {
		lambda = *o.Lambda
	}
	if o.Rise != nil {
		rise = *o.Rise
	}
	if o.Vdd != nil {
		vdd = *o.Vdd
	}
	if rise <= 0 || math.IsNaN(rise) || math.IsInf(rise, 0) {
		return invalidf("rise = %g must be positive and finite", rise)
	}
	req.params = noise.Params{CouplingRatio: lambda, Slope: vdd / rise}
	if err := req.params.Validate(); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if o.BufNM != nil {
		req.bufNM = *o.BufNM
		if err := buffers.DefaultLibrary(req.bufNM).Validate(); err != nil {
			return invalidf("bufnm = %g: %v", req.bufNM, err)
		}
	}
	if o.SegLen != nil {
		req.segLen = *o.SegLen
	}
	if math.IsNaN(req.segLen) || math.IsInf(req.segLen, 0) || req.segLen < 0 {
		return invalidf("seglen = %g must be non-negative and finite", req.segLen)
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
	if err := checkQuery(q, "timeout_ms", "max_cands"); err != nil {
		return err
	}
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
	return nil
}

// checkQuery rejects every query parameter not named in allowed, so a
// knob is never silently ignored: only raw netfmt posts take knobs in
// the query, and a JSON post carries them in its "options".
func checkQuery(q url.Values, allowed ...string) error {
	names := make([]string, 0, len(q))
	for name := range q {
		if !slices.Contains(allowed, name) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	slices.Sort(names)
	return invalidf("unknown query parameter %q (only raw netfmt posts take ?timeout_ms= and ?max_cands=)", names[0])
}

// decodeStatus is the HTTP status of a decode rejection: 413 for an
// oversized payload, 400 for everything else.
func decodeStatus(err error) int {
	if errors.Is(err, guard.ErrBudgetExceeded) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
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
