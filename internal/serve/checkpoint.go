package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"

	"slaplace/api"
)

// exportLocked builds the cluster's checkpoint. Caller holds cs.mu.
func exportLocked(cs *clusterSession, clusterID string) (*api.Checkpoint, error) {
	ck, err := cs.sess.Export()
	if err != nil {
		return nil, err
	}
	ck.ClusterID = clusterID
	return ck, nil
}

// checkpointPath maps a cluster ID to its state file. IDs are
// arbitrary client strings; path-escaping keeps "a/b" and ".." as flat
// file names inside the state dir.
func (s *Server) checkpointPath(clusterID string) string {
	return filepath.Join(s.opts.StateDir, url.PathEscape(clusterID)+".ckpt")
}

// writeCheckpointFile persists a checkpoint atomically: encode (binary
// — the compact codec, same bit-exactness guarantees as JSON) to a
// temp file in the state dir, fsync, rename over the live name. The
// encoder streams the document into the file in bounded chunks; a
// failed chunk fails the write before the rename, so a crash or a full
// disk mid-write leaves the previous file intact.
func (s *Server) writeCheckpointFile(ck *api.Checkpoint) error {
	tmp, err := os.CreateTemp(s.opts.StateDir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := api.EncodeCheckpointBinary(tmp, ck); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.checkpointPath(ck.ClusterID))
}

// readCheckpoint loads the cluster's state file. No file is not an
// error: (nil, nil) means start fresh.
func (s *Server) readCheckpoint(clusterID string) (*api.Checkpoint, error) {
	f, err := os.Open(s.checkpointPath(clusterID))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return api.DecodeCheckpointBinary(sizedReader{f, st.Size()})
}

// checkpointLocked exports the session and rolls its state file
// forward, re-asserting the cluster's ownership claim first. Caller
// holds cs.mu. A depose — another replica took the claim over while
// ours was stale — retires the local session instead of writing: the
// new owner is checkpointing this cluster now, and two writers would
// fork the plan sequence.
func (s *Server) checkpointLocked(cs *clusterSession, clusterID string) error {
	if err := s.refreshClaim(clusterID); err != nil {
		var notOwner *notOwnerError
		if errors.As(err, &notOwner) {
			s.retire(clusterID, cs)
			return fmt.Errorf("deposed: %w", err)
		}
		return err
	}
	ck, err := exportLocked(cs, clusterID)
	if err != nil {
		return err
	}
	return s.writeCheckpointFile(ck)
}

// handleCheckpointGet exports a session as an api.Checkpoint, JSON by
// default, binary when the Accept header asks for it.
func (s *Server) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	clusterID := r.PathValue("cluster")
	cs := s.lookup(clusterID)
	if cs == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no session for cluster %q", clusterID))
		return
	}
	cs.mu.Lock()
	ck, err := exportLocked(cs, clusterID)
	cs.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if acceptsBinary(r) {
		w.Header().Set("Content-Type", api.ContentTypeBinary)
		if err := api.EncodeCheckpointBinary(w, ck); err != nil {
			s.logf("serve: binary checkpoint response for %q failed: %v", clusterID, err)
		}
		return
	}
	w.Header().Set("Content-Type", api.ContentTypeJSON)
	if err := api.EncodeCheckpoint(w, ck); err != nil {
		s.logf("serve: checkpoint response for %q failed: %v", clusterID, err)
	}
}

// handleCheckpointPut restores a checkpoint as a new session — the
// migration path between daemons. The target cluster must not already
// have a session (409 otherwise); the checkpoint's own shard count and
// controller binding decide the session's shape.
func (s *Server) handleCheckpointPut(w http.ResponseWriter, r *http.Request) {
	clusterID := r.PathValue("cluster")
	if s.draining.Load() {
		// A daemon on its way out must not accept a migration it would
		// immediately have to hand off again.
		httpError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return
	}
	body := s.requestBody(w, r)
	var ck *api.Checkpoint
	var err error
	if sendsBinary(r) {
		ck, err = api.DecodeCheckpointBinary(body)
	} else {
		ck, err = api.DecodeCheckpoint(body)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if ck.ClusterID != "" && ck.ClusterID != clusterID {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("checkpoint is for cluster %q, not %q", ck.ClusterID, clusterID))
		return
	}
	ck.ClusterID = clusterID

	// Build the whole session before touching the table: the restore
	// re-plan is the expensive part and must not run under s.mu.
	cs := &clusterSession{}
	if err := s.restoreInto(cs, ck); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cs.once.Do(func() {})
	cs.ready.Store(true)

	// A PUT is an explicit ownership transfer (the drain hand-off
	// path): take the claim unconditionally, before the session becomes
	// visible, so the sender's leftover claim never bounces our own
	// checkpoint refreshes.
	if err := s.forceClaim(clusterID); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}

	s.mu.Lock()
	if _, exists := s.sessions[clusterID]; exists {
		s.mu.Unlock()
		httpError(w, http.StatusConflict,
			fmt.Errorf("cluster %q already has a session", clusterID))
		return
	}
	if s.opts.MaxSessions > 0 && len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		httpError(w, http.StatusTooManyRequests,
			fmt.Errorf("serve: session limit %d reached", s.opts.MaxSessions))
		return
	}
	s.sessions[clusterID] = cs
	s.mu.Unlock()

	// Make the migrated-in session durable immediately: if this daemon
	// dies before its first planned cycle, restart still finds it.
	if s.opts.StateDir != "" {
		cs.mu.Lock()
		if err := s.checkpointLocked(cs, clusterID); err != nil {
			s.logf("serve: checkpoint write for %q failed: %v", clusterID, err)
		}
		cs.mu.Unlock()
	}

	w.WriteHeader(http.StatusNoContent)
}
