package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"buffopt/internal/core"
	"buffopt/internal/guard"
	"buffopt/internal/obs"
)

// sessionStore owns bufferd's incremental (ECO) sessions: TTL-bounded,
// count-bounded, each wrapping one core.Session (which itself bounds its
// memo bytes). State lives per replica — a session id is only meaningful
// on the replica that minted it, which is exactly the affinity the fleet
// router's hash routing provides.
//
// Accounting (the ecosoak invariants):
//
//	server.delta.sessions.created  == creations
//	server.delta.sessions.expired  == TTL expiries observed (lazy)
//	server.delta.sessions.evicted  == evictions to honor MaxSessions
//	server.delta.sessions.active   == created − expired − evicted (gauge)
type sessionStore struct {
	mu   sync.Mutex
	byID map[string]*serverSession
	ttl  time.Duration
	max  int
	now  func() time.Time // injectable clock for TTL tests
}

// serverSession is one live session plus the request context needed to
// shape its responses. The embedded core.Session serializes concurrent
// Delta calls itself; the store's lock covers only the map and the
// expiry bookkeeping.
type serverSession struct {
	id string
	// sess is the incremental solver state (tree, hashes, memo).
	sess *core.Session
	// req preserves the creating request's decoded knobs: the noise
	// params and library margin shape every response's analysis, and the
	// timeout/candidate-cap defaults apply to later deltas that set none.
	req *solveRequest
	// objective pins the session's problem objective (a session cannot
	// change what it optimizes, only the net).
	objective core.Objective
	// lastUse orders LRU eviction; expires is lastUse + TTL.
	lastUse time.Time
	expires time.Time
}

func newSessionStore(ttl time.Duration, max int) *sessionStore {
	return &sessionStore{
		byID: make(map[string]*serverSession),
		ttl:  ttl,
		max:  max,
		now:  time.Now,
	}
}

// newSessionID mints an unguessable id (128 random bits, hex).
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; an id collision under
		// a panicking fallback would corrupt ledgers silently, so fail
		// loudly instead.
		panic(fmt.Sprintf("server: session id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// add registers a built session, evicting the least-recently-used live
// sessions if the store is full, and stamps the minted id onto it. The
// caller registers only after the session's first solve succeeds, so a
// failed create never orphans a slot (the client has no id to come back
// with).
func (st *sessionStore) add(s *serverSession) string {
	now := st.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(now)
	for st.max > 0 && len(st.byID) >= st.max {
		st.evictOldestLocked()
	}
	s.id = newSessionID()
	s.lastUse = now
	s.expires = now.Add(st.ttl)
	st.byID[s.id] = s
	obs.Inc("server.delta.sessions.created")
	obs.Set("server.delta.sessions.active", int64(len(st.byID)))
	return s.id
}

// get returns the live session for id, refreshing its TTL, or an
// invalid-input error (the handler maps it to 404) when the id is
// unknown or expired. An expired session is indistinguishable from an
// unknown one by design: the caller must re-create and re-warm, never
// silently full-solve under a stale ledger.
func (st *sessionStore) get(id string) (*serverSession, error) {
	now := st.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(now)
	s, ok := st.byID[id]
	if !ok {
		obs.Inc("server.delta.sessions.missing")
		return nil, fmt.Errorf("server: unknown or expired session %q: %w", id, guard.ErrInvalidInput)
	}
	s.lastUse = now
	s.expires = now.Add(st.ttl)
	return s, nil
}

// sweepLocked drops every expired session. Lazy: runs at each store
// access, so an idle store holds dead sessions' memory only until the
// next touch — acceptable for a bounded store, and it keeps the server
// free of a background goroutine per concern.
func (st *sessionStore) sweepLocked(now time.Time) {
	for id, s := range st.byID {
		if now.After(s.expires) {
			s.sess.Purge() // release memo bytes with exact cache books
			delete(st.byID, id)
			obs.Inc("server.delta.sessions.expired")
		}
	}
	obs.Set("server.delta.sessions.active", int64(len(st.byID)))
}

// evictOldestLocked removes the least-recently-used session to make room.
func (st *sessionStore) evictOldestLocked() {
	var oldest *serverSession
	for _, s := range st.byID {
		if oldest == nil || s.lastUse.Before(oldest.lastUse) {
			oldest = s
		}
	}
	if oldest == nil {
		return
	}
	oldest.sess.Purge()
	delete(st.byID, oldest.id)
	obs.Inc("server.delta.sessions.evicted")
}

// len reports the live session count (tests).
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}
