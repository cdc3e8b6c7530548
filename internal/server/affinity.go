package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/url"
)

// Keyer derives the content-addressed affinity keys the fleet router
// hashes requests by. It lives in this package — not in fleet — because
// the whole point of hash affinity is that the router's routing key and
// the replicas' cache key are the same function: when they agree, the
// per-replica LRU caches compose into a fleet-wide cache with no
// coordination (every repeat of a problem lands on the shard that
// already holds its answer). A Keyer is a Server that never serves: it
// reuses the exact decode + cacheKey path the replicas run, so the
// agreement is by construction, not by parallel reimplementation.
//
// Undecodable bodies still get a deterministic key (a content hash of
// the raw bytes), so the router can forward them to a consistent replica
// and let that replica produce the authoritative 400 — the router never
// duplicates validation policy.
type Keyer struct {
	s *Server
}

// NewKeyer builds a Keyer from the same Config the replicas run with
// (only the decode-relevant fields matter: MaxBytes, Limits,
// DefaultTimeout, MaxTimeout, MaxCands). Differences between this config
// and a replica's only weaken affinity — requests still route
// deterministically.
func NewKeyer(cfg Config) *Keyer {
	return &Keyer{s: &Server{cfg: cfg.withDefaults()}}
}

// SolveKey returns the affinity key for one /solve request body, either
// an application/json envelope or raw netfmt text with query knobs —
// decoded by decodeSolve, the replicas' own decoder.
func (k *Keyer) SolveKey(contentType string, query url.Values, body []byte) string {
	req, err := k.s.decodeSolve(contentType, query, body)
	if err != nil {
		return rawKey(contentType, body)
	}
	return k.s.cacheKey(req)
}

// SplitItem is one /solve/batch item carved out for per-item routing:
// its position in the original batch, its affinity key, and its raw
// envelope bytes (forwarded verbatim inside a per-replica sub-batch).
type SplitItem struct {
	Index int
	Key   string
	Raw   json.RawMessage
}

// errUnsplittable reports a batch body the router cannot take apart.
var errUnsplittable = errors.New("server: batch body is not a splittable {\"nets\": [...]} object")

// SplitBatch parses a /solve/batch body into per-item raw envelopes and
// affinity keys. An unsplittable body (malformed JSON, unknown top-level
// fields, no nets) returns an error; the router then forwards the whole
// body to one replica chosen by its raw-content key, and that replica's
// decodeBatch produces the authoritative rejection. Items whose envelope
// fails to decode still split out — each gets a raw-content key and the
// replica it lands on reports the per-item error, preserving the batch
// endpoint's partial-failure semantics through the router.
func (k *Keyer) SplitBatch(body []byte) ([]SplitItem, error) {
	var env struct {
		Nets []json.RawMessage `json:"nets"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, errUnsplittable
	}
	if len(env.Nets) == 0 {
		return nil, errUnsplittable
	}
	items := make([]SplitItem, len(env.Nets))
	for i, raw := range env.Nets {
		items[i] = SplitItem{Index: i, Key: k.itemKey(raw), Raw: raw}
	}
	return items, nil
}

// itemKey keys one batch item exactly as its /solve equivalent would be
// keyed, so a net posted alone and the same net posted inside a batch
// land on the same shard and share one cache entry.
func (k *Keyer) itemKey(raw json.RawMessage) string {
	req, err := k.s.decodeJSON(raw)
	if err != nil {
		return rawKey("application/json", raw)
	}
	return k.s.cacheKey(req)
}

// rawKey is the fallback key for bodies the decode path rejects: a hash
// of the bytes themselves, prefixed with the decode family so a JSON
// body and a netfmt body with identical bytes (which replicas treat
// differently) cannot collide.
func rawKey(contentType string, body []byte) string {
	family := "text"
	if isJSON(contentType) {
		family = "json"
	}
	sum := sha256.Sum256(body)
	return "raw:" + family + ":" + hex.EncodeToString(sum[:])
}
