package server

// The versioned request envelope: the one JSON codec shared by bufferd
// (/solve, /solve/batch, /solve/delta) and the fleet router's affinity
// Keyer. Two wire shapes share the struct:
//
// v1 — the legacy flat shape, bit-compatible forever. Solver knobs sit
// at the top level; "options" holds only the (accepted, ignored) engine:
//
//	{"v": 1, "net": "net x\n...end\n", "timeout_ms": 1000,
//	 "lambda": 0.7, "options": {"engine": "lishi"},
//	 "problem": {"objective": "max-slack", "k": 8}}
//
// v2 — the consolidated shape. Every knob that changes how (not what)
// the solver computes lives under "options"; "problem" still names what
// to compute; "session"/"edits" carry the incremental re-solve state
// for /solve/delta:
//
//	{"v": 2, "net": "net x\n...end\n",
//	 "options": {"engine": "auto", "timeout_ms": 1000, "lambda": 0.7},
//	 "problem": {"objective": "max-slack-noise"},
//	 "session": {"id": "..."},
//	 "edits": [{"op": "set-cap", "node": 5, "value": 2.0e-14}]}
//
// Version discipline: absent "v" means 1; a v1 envelope using a v2-only
// field is rejected with a named 400, as is a v2 envelope using a
// top-level knob — the two shapes never blur. Unknown versions fail
// with UnsupportedVersionError, and unknown fields are rejected at the
// JSON layer (DisallowUnknownFields), so a future v3 shape can never be
// silently misread as today's.

// Envelope is the application/json request shape. Pointer fields
// distinguish "absent" (use the server default) from an explicit zero.
type Envelope struct {
	// V is the envelope version: absent means 1 (the flat shape predates
	// versioning); 2 selects the consolidated shape above. Anything else
	// is rejected with a typed 400.
	V *int `json:"v,omitempty"`
	// Net is the netfmt text of the net to solve (required for /solve and
	// /solve/batch items; required on /solve/delta only when creating a
	// session).
	Net string `json:"net,omitempty"`
	// Problem, when present, selects a single optimization objective
	// (core.Optimize) instead of the default degradation ladder
	// (core.Solve). Valid in both versions.
	Problem *ProblemEnvelope `json:"problem,omitempty"`
	// Options carries solver knobs that change how the answer is computed
	// but never what it is. In v1 only Engine may be set here; in v2 this
	// is the only place knobs live.
	Options *OptionsEnvelope `json:"options,omitempty"`
	// Session and Edits are the /solve/delta fields (v2 only): the
	// incremental session to address and the edit stream to apply.
	Session *SessionEnvelope `json:"session,omitempty"`
	Edits   []EditEnvelope   `json:"edits,omitempty"`

	// v1 top-level knobs. In v2 these must be absent (they move into
	// Options); kept unrenamed for wire compatibility.

	// TimeoutMS is the request deadline in milliseconds (clamped to the
	// server's MaxTimeout; 0 or absent means the server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxCands caps the DP candidate lists (may tighten, never loosen,
	// the server's own cap; 0 or absent means the server default).
	MaxCands int `json:"max_cands,omitempty"`
	// Lambda is the coupling-to-total-capacitance ratio λ.
	Lambda *float64 `json:"lambda,omitempty"`
	// Rise is the aggressor rise time in seconds.
	Rise *float64 `json:"rise,omitempty"`
	// Vdd is the supply voltage in volts.
	Vdd *float64 `json:"vdd,omitempty"`
	// BufNM is the buffer library noise margin in volts.
	BufNM *float64 `json:"bufnm,omitempty"`
	// SegLen is the wire segmenting length in meters; 0 disables
	// segmenting, absent means the server default (0.5 mm).
	SegLen *float64 `json:"seglen,omitempty"`
}

// ProblemEnvelope is the "problem" sub-object: what to compute.
type ProblemEnvelope struct {
	// Objective names the optimization objective: "max-slack",
	// "max-slack-noise", or "min-buffers-noise" (required when the
	// sub-object is present).
	Objective string `json:"objective"`
	// K bounds the buffer count for the max-slack objectives; it is
	// invalid with min-buffers-noise (that objective computes the bound).
	K *int `json:"k,omitempty"`
}

// OptionsEnvelope is the "options" sub-object: how to compute it. Engine
// is valid in both versions; every other field is v2-only.
type OptionsEnvelope struct {
	// Engine is accepted for wire compatibility and ignored: "vg",
	// "lishi" and "auto" all answer exactly as no engine does, because
	// the solver picks its merge path from the problem. Any other name is
	// a 400.
	Engine string `json:"engine,omitempty"`
	// TimeoutMS, MaxCands, Lambda, Rise, Vdd, BufNM, SegLen are the v2
	// homes of the v1 top-level knobs, with identical semantics.
	TimeoutMS *int64   `json:"timeout_ms,omitempty"`
	MaxCands  *int     `json:"max_cands,omitempty"`
	Lambda    *float64 `json:"lambda,omitempty"`
	Rise      *float64 `json:"rise,omitempty"`
	Vdd       *float64 `json:"vdd,omitempty"`
	BufNM     *float64 `json:"bufnm,omitempty"`
	SegLen    *float64 `json:"seglen,omitempty"`
}

// SessionEnvelope addresses an incremental (ECO) session on
// /solve/delta.
type SessionEnvelope struct {
	// ID is the session to edit and re-solve. Empty (with "net" present)
	// creates a new session; the response carries the assigned ID.
	ID string `json:"id,omitempty"`
}

// EditEnvelope is one edit-stream operation on /solve/delta.
type EditEnvelope struct {
	// Op names the operation: "set-cap", "set-rat", "set-wire", "graft",
	// or "prune" (core.EditOp names).
	Op string `json:"op"`
	// Node addresses the session's current worked tree (IDs as returned
	// in responses, renumbered by any earlier prunes in the stream).
	Node int `json:"node"`
	// Value is the new sink capacitance (F) or RAT (s) for
	// set-cap/set-rat.
	Value *float64 `json:"value,omitempty"`
	// Wire is the replacement parent wire for set-wire, and the
	// attachment wire for graft.
	Wire *WireEnvelope `json:"wire,omitempty"`
	// Sub is the netfmt text of the subtree to graft (its source node
	// becomes an internal buffer site).
	Sub string `json:"sub,omitempty"`
}

// WireEnvelope is one wire's parasitics on the wire format.
type WireEnvelope struct {
	R      float64 `json:"r"`
	C      float64 `json:"c"`
	Length float64 `json:"length,omitempty"`
}

// Version resolves and validates the envelope's version: the version
// number, with every field in the place that version allows. Errors wrap
// guard.ErrInvalidInput (400, class "invalid").
func (e *Envelope) Version() (int, error) {
	v := 1
	if e.V != nil {
		v = *e.V
	}
	switch v {
	case 1:
		if name := e.v2OnlyOption(); name != "" {
			return 0, invalidf("options.%s requires a v2 envelope (set \"v\": 2)", name)
		}
		if e.Session != nil || len(e.Edits) > 0 {
			return 0, invalidf(`"session"/"edits" require a v2 envelope (set "v": 2)`)
		}
		return 1, nil
	case 2:
		if name := e.topLevelKnob(); name != "" {
			return 0, invalidf("v2 moved %q into \"options\"; set it there", name)
		}
		return 2, nil
	}
	return 0, &UnsupportedVersionError{Version: v}
}

// v2OnlyOption returns the name of the first v2-only options field a v1
// envelope set, or "".
func (e *Envelope) v2OnlyOption() string {
	o := e.Options
	switch {
	case o == nil:
		return ""
	case o.TimeoutMS != nil:
		return "timeout_ms"
	case o.MaxCands != nil:
		return "max_cands"
	case o.Lambda != nil:
		return "lambda"
	case o.Rise != nil:
		return "rise"
	case o.Vdd != nil:
		return "vdd"
	case o.BufNM != nil:
		return "bufnm"
	case o.SegLen != nil:
		return "seglen"
	}
	return ""
}

// topLevelKnob returns the name of the first legacy top-level knob a v2
// envelope set, or "".
func (e *Envelope) topLevelKnob() string {
	switch {
	case e.TimeoutMS != 0:
		return "timeout_ms"
	case e.MaxCands != 0:
		return "max_cands"
	case e.Lambda != nil:
		return "lambda"
	case e.Rise != nil:
		return "rise"
	case e.Vdd != nil:
		return "vdd"
	case e.BufNM != nil:
		return "bufnm"
	case e.SegLen != nil:
		return "seglen"
	}
	return ""
}

// knobs is the version-normalized view of an envelope's solver knobs —
// the one struct the decode path reads, so v1 and v2 envelopes that say
// the same thing decode (and cache-key) identically.
type envelopeKnobs struct {
	timeoutMS int64
	maxCands  int
	lambda    *float64
	rise      *float64
	vdd       *float64
	bufNM     *float64
	segLen    *float64
	engine    string
}

// knobs flattens the envelope's knobs for version ver (already validated
// by Version, so misplaced fields cannot reach here).
func (e *Envelope) knobs(ver int) envelopeKnobs {
	var k envelopeKnobs
	if ver >= 2 {
		if o := e.Options; o != nil {
			if o.TimeoutMS != nil {
				k.timeoutMS = *o.TimeoutMS
			}
			if o.MaxCands != nil {
				k.maxCands = *o.MaxCands
			}
			k.lambda, k.rise, k.vdd, k.bufNM, k.segLen = o.Lambda, o.Rise, o.Vdd, o.BufNM, o.SegLen
			k.engine = o.Engine
		}
		return k
	}
	k = envelopeKnobs{
		timeoutMS: e.TimeoutMS,
		maxCands:  e.MaxCands,
		lambda:    e.Lambda,
		rise:      e.Rise,
		vdd:       e.Vdd,
		bufNM:     e.BufNM,
		segLen:    e.SegLen,
	}
	if e.Options != nil {
		k.engine = e.Options.Engine
	}
	return k
}
