package server

// The request envelope: the one JSON codec shared by bufferd (/solve,
// /solve/batch, /solve/delta) and the fleet router's affinity Keyer.
// Every knob that changes how (not what) the solver computes lives under
// "options"; "problem" names what to compute; "session"/"edits" carry
// the incremental re-solve state for /solve/delta:
//
//	{"v": 2, "net": "net x\n...end\n",
//	 "options": {"timeout_ms": 1000, "lambda": 0.7},
//	 "problem": {"objective": "max-slack-noise"},
//	 "session": {"id": "..."},
//	 "edits": [{"op": "set-cap", "node": 5, "value": 2.0e-14}]}
//
// Version discipline: absent "v" means 2, the only shape this server
// speaks. Any other version fails with UnsupportedVersionError, and
// unknown fields are rejected at the JSON layer (DisallowUnknownFields),
// so an older flat shape or a future one is never silently misread as
// today's.

// Envelope is the application/json request shape. Pointer fields
// distinguish "absent" (use the server default) from an explicit zero.
type Envelope struct {
	// V is the envelope version: absent or 2. Anything else is rejected
	// with a typed 400.
	V *int `json:"v,omitempty"`
	// Net is the netfmt text of the net to solve (required for /solve and
	// /solve/batch items; required on /solve/delta only when creating a
	// session).
	Net string `json:"net,omitempty"`
	// Problem, when present, selects a single optimization objective
	// (core.Optimize) instead of the default degradation ladder
	// (core.Solve).
	Problem *ProblemEnvelope `json:"problem,omitempty"`
	// Options carries solver knobs that change how the answer is computed
	// but never what it is.
	Options *OptionsEnvelope `json:"options,omitempty"`
	// Session and Edits are the /solve/delta fields: the incremental
	// session to address and the edit stream to apply.
	Session *SessionEnvelope `json:"session,omitempty"`
	Edits   []EditEnvelope   `json:"edits,omitempty"`
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

// OptionsEnvelope is the "options" sub-object: how to compute it.
type OptionsEnvelope struct {
	// TimeoutMS is the request deadline in milliseconds (clamped to the
	// server's MaxTimeout; 0 or absent means the server default).
	TimeoutMS *int64 `json:"timeout_ms,omitempty"`
	// MaxCands caps the DP candidate lists (may tighten, never loosen,
	// the server's own cap; 0 or absent means the server default).
	MaxCands *int `json:"max_cands,omitempty"`
	// Lambda is the coupling-to-total-capacitance ratio λ, in [0, 1].
	Lambda *float64 `json:"lambda,omitempty"`
	// Rise is the aggressor rise time in seconds.
	Rise *float64 `json:"rise,omitempty"`
	// Vdd is the supply voltage in volts; Vdd/Rise is the aggressor
	// slope, which must be positive.
	Vdd *float64 `json:"vdd,omitempty"`
	// BufNM is the buffer library noise margin in volts.
	BufNM *float64 `json:"bufnm,omitempty"`
	// SegLen is the wire segmenting length in meters; 0 disables
	// segmenting, absent means the server default (0.5 mm).
	SegLen *float64 `json:"seglen,omitempty"`
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
