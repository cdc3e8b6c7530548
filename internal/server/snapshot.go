package server

import (
	"log/slog"

	"buffopt/internal/core"
)

// Snapshot wiring: the cache layer owns the file format and its books
// (internal/cache/snapshot.go); this file binds it to the server's cache
// and value codec. The value codec is core.EncodeSolveResult /
// core.DecodeSolveResult, which persists only clean exact results and
// re-validates each entry against the content-addressed key it is stored
// under — a snapshot cannot inject a result for a problem it does not
// answer (DESIGN.md §15).

// loadSnapshot warm-starts the cache from cfg.SnapshotPath. Called from
// New so embedders that never Run (the fleet lab serves Handler() under
// its own http.Server) still warm-start. A missing file is a normal cold
// start; a corrupt, torn, or version-skewed file is rejected whole —
// counted under server.cache.snapshot.rejected, logged, cold start —
// never a panic and never a partially-loaded cache.
func (s *Server) loadSnapshot() {
	if s.cache == nil || s.cfg.SnapshotPath == "" {
		return
	}
	if _, err := s.cache.LoadSnapshot(s.cfg.SnapshotPath, core.DecodeSolveResult); err != nil {
		slog.Warn("server: cache snapshot rejected; starting cold",
			"path", s.cfg.SnapshotPath, "error", err)
	}
}

// SaveSnapshot writes the result cache to cfg.SnapshotPath atomically
// (temp file + rename; see cache.SaveSnapshot). Run calls it periodically
// and on drain; embedders (the fleet lab) call it directly before
// killing a replica. A no-op returning nil when the cache or
// snapshotting is disabled.
func (s *Server) SaveSnapshot() error {
	if s.cache == nil || s.cfg.SnapshotPath == "" {
		return nil
	}
	_, _, err := s.cache.SaveSnapshot(s.cfg.SnapshotPath, core.EncodeSolveResult)
	return err
}
