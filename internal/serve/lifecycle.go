package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"slaplace/api"
	"slaplace/internal/replica"
)

// Liveness vs readiness, drain, and the eager state scan — the
// lifecycle half of the daemon that makes rolling restarts and
// failover safe:
//
//	/v1/healthz  liveness: "is the process up" — always 200 while the
//	             daemon can answer at all, draining included, so an
//	             orchestrator does not kill a daemon that is busy
//	             handing its sessions off.
//	/v1/readyz   readiness: "should traffic come here" — 503 while the
//	             startup state scan is still restoring sessions and
//	             while draining. The coordinator probes this one.

// handleReadyz reports readiness (see above).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	status := api.ReadyStatusReady
	switch {
	case s.draining.Load():
		status = api.ReadyStatusDraining
	case s.restoring.Load():
		status = api.ReadyStatusRestoring
	}
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	resp := &api.ReadyResponse{
		Status:        status,
		SchemaVersion: api.SchemaVersion,
		Sessions:      n,
		ReplicaID:     s.opts.ReplicaID,
	}
	if status != api.ReadyStatusReady {
		w.Header().Set("Content-Type", api.ContentTypeJSON)
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, resp)
}

// ScanState eagerly restores every checkpoint in the state dir —
// instead of waiting for each cluster's first request — and then
// clears the "restoring" readiness state. With claims enabled it
// adopts only the clusters it can claim (free, ours, or stale); a
// fresh foreign claim is another replica's cluster and is skipped.
//
// A Server built with a StateDir starts in the restoring state and
// stays there until its owner calls ScanState (cmd/slaplace-serve does
// so right after binding the listener, so probes see "restoring" while
// the scan runs).
func (s *Server) ScanState() (restored int, err error) {
	defer s.restoring.Store(false)
	if s.opts.StateDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.opts.StateDir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".ckpt") || strings.HasPrefix(name, ".") {
			continue
		}
		clusterID, err := url.PathUnescape(strings.TrimSuffix(name, ".ckpt"))
		if err != nil {
			s.logf("serve: state scan: undecodable checkpoint name %q: %v", name, err)
			continue
		}
		_, _, serr := s.session(clusterID, 0, nil)
		var notOwner *notOwnerError
		switch {
		case errors.As(serr, &notOwner):
			// Another replica's cluster; not ours to restore.
		case serr != nil:
			s.logf("serve: state scan: cluster %q not restored: %v", clusterID, serr)
		default:
			restored++
		}
	}
	return restored, nil
}

// retire drops a session from the table (if it is still the one the
// caller holds). The cluster's next request re-resolves: 404 here, and
// the retrying client moves on to the owner.
func (s *Server) retire(clusterID string, cs *clusterSession) {
	s.mu.Lock()
	if s.sessions[clusterID] == cs {
		delete(s.sessions, clusterID)
	}
	s.mu.Unlock()
}

// Drain is the graceful half of a rolling restart. It flips readiness
// to draining (new sessions are refused with 503 from that point; live
// ones keep serving until handed off), then for each session: flush a
// final checkpoint, PUT it into the highest-ranked peer that will take
// it — the same rendezvous ranking the coordinator routes by, so the
// receiver is exactly where re-homed traffic lands — and retire the
// local session. A hand-off nobody accepted leaves the checkpoint on
// disk with the claim released, so any replica can adopt it from the
// shared state dir without waiting out the staleness window.
//
// The returned error is the first hand-off failure (nil when every
// session drained clean). Drain never blocks past ctx.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)

	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	byID := make(map[string]*clusterSession, len(s.sessions))
	for id, cs := range s.sessions {
		if cs.ready.Load() {
			ids = append(ids, id)
			byID[id] = cs
		}
	}
	s.mu.Unlock()
	sort.Strings(ids)

	client := replica.NewClient(replica.StaticRouter(s.opts.Peers))
	client.MaxAttempts = 3
	client.BaseBackoff = 100 * time.Millisecond
	client.Logf = s.opts.Logf

	var firstErr error
	for _, id := range ids {
		cs := byID[id]
		cs.mu.Lock()
		ck, err := exportLocked(cs, id)
		if err == nil && s.opts.StateDir != "" {
			// Final flush: even if every peer refuses the hand-off, the
			// state dir holds the last cycle.
			if werr := s.writeCheckpointFile(ck); werr != nil {
				s.logf("serve: drain: final checkpoint for %q failed: %v", id, werr)
			}
		}
		cs.mu.Unlock()
		if err != nil {
			s.logf("serve: drain: export for %q failed: %v", id, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("drain: export %q: %w", id, err)
			}
			continue
		}

		handed := ""
		for _, peer := range replica.Rank(id, s.opts.Peers) {
			if peer == s.opts.ReplicaID {
				continue
			}
			err := client.PutCheckpoint(ctx, peer, ck)
			if err == nil || errors.Is(err, replica.ErrAlreadyExists) {
				handed = peer
				break
			}
			s.logf("serve: drain: hand-off of %q to %s failed: %v", id, peer, err)
			if ctx.Err() != nil {
				break
			}
		}
		s.retire(id, cs)
		if handed != "" {
			s.logf("serve: drain: %q handed off to %s at cycle %d", id, handed, ck.Cycle)
			continue
		}
		// No peer took it: release the claim so the checkpoint on disk
		// is immediately adoptable.
		s.releaseClaim(id)
		if firstErr == nil {
			firstErr = fmt.Errorf("drain: no peer accepted cluster %q", id)
		}
	}
	return firstErr
}
