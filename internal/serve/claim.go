package serve

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Per-cluster ownership claims. When several replicas share a state
// dir, a checkpoint on disk is an invitation to adopt — and without
// arbitration two replicas scanning after a crash would both restore
// the same cluster and fork its plan sequence. A claim file
// (<escaped-cluster>.claim, containing the owner's replica ID) makes
// adoption exactly-once:
//
//   - fresh adoption publishes the claim with its content already in it:
//     the owner's ID goes to a temp file that is hard-linked to the
//     claim name — link fails with EEXIST for all but one racer, and
//     no reader can ever see a claim without an owner;
//   - a claim whose mtime is older than StaleClaimAfter is presumed
//     orphaned (its owner stopped checkpointing — every checkpoint
//     write refreshes the mtime) and may be taken over: the thief
//     renames the stale file away (POSIX rename: one racer gets it,
//     the rest get ENOENT) and then competes in the link;
//   - a fresh claim by someone else is an answer, not an obstacle:
//     the caller gets notOwnerError carrying the owner's ID, which
//     the HTTP layer turns into 421 + an owner hint the retrying
//     client follows.
//
// Claims are enabled only when both StateDir and ReplicaID are set; a
// single-daemon deployment (no ReplicaID) keeps the claimless PR-7
// behavior bit for bit.

// notOwnerError reports that another replica holds a fresh claim on a
// cluster. owner is its replica ID — by convention its base URL, so it
// doubles as a routing hint.
type notOwnerError struct{ owner string }

func (e *notOwnerError) Error() string {
	return fmt.Sprintf("cluster is owned by replica %q", e.owner)
}

// claimsEnabled reports whether ownership arbitration is on.
func (s *Server) claimsEnabled() bool {
	return s.opts.StateDir != "" && s.opts.ReplicaID != ""
}

// claimPath maps a cluster ID to its claim file.
func (s *Server) claimPath(clusterID string) string {
	return filepath.Join(s.opts.StateDir, url.PathEscape(clusterID)+".claim")
}

// readClaim returns a claim file's owner and freshness. Claims are
// published whole (stageClaim + link or rename), so a file that names
// no owner is damage, not a claim in progress: an error, never an owner.
func readClaim(path string) (owner string, mtime time.Time, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", time.Time{}, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return "", time.Time{}, err
	}
	owner = strings.TrimSpace(string(data))
	if owner == "" {
		return "", time.Time{}, fmt.Errorf("claim file %s names no owner", path)
	}
	return owner, st.ModTime(), nil
}

// stageClaim writes this replica's ID to a synced temp file in the
// state dir and returns its name. The caller publishes it under the
// claim name (link to compete, rename to overwrite) and removes it.
func (s *Server) stageClaim() (string, error) {
	tmp, err := os.CreateTemp(s.opts.StateDir, ".claim-*")
	if err != nil {
		return "", err
	}
	_, err = tmp.WriteString(s.opts.ReplicaID + "\n")
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// acquireClaim takes (or refreshes) the cluster's claim for this
// replica. It returns notOwnerError when another replica holds a fresh
// claim, nil when the claim is ours on return. No-op when claims are
// disabled.
func (s *Server) acquireClaim(clusterID string) error {
	if !s.claimsEnabled() {
		return nil
	}
	path := s.claimPath(clusterID)
	tmp, err := s.stageClaim()
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	for attempt := 0; attempt < 5; attempt++ {
		err := os.Link(tmp, path)
		if err == nil {
			return nil
		}
		if !errors.Is(err, os.ErrExist) {
			return err
		}
		owner, mtime, err := readClaim(path)
		if errors.Is(err, os.ErrNotExist) {
			continue // deleted between create and read — race again
		}
		if err != nil {
			return err
		}
		if owner == s.opts.ReplicaID {
			now := time.Now()
			return os.Chtimes(path, now, now)
		}
		if time.Since(mtime) < s.opts.StaleClaimAfter {
			return &notOwnerError{owner: owner}
		}
		// Stale: the owner stopped refreshing (dead, or the cluster went
		// idle on it — either way it will notice the depose on its next
		// refresh). Exactly one thief wins the rename; losers see ENOENT
		// and loop back to compete in the link.
		graveyard := path + ".steal." + url.PathEscape(s.opts.ReplicaID)
		if err := os.Rename(path, graveyard); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return err
		}
		_ = os.Remove(graveyard)
	}
	return fmt.Errorf("claim for %q: contention did not settle", clusterID)
}

// refreshClaim re-asserts ownership (bumping the mtime that keeps the
// claim fresh). notOwnerError means this replica was deposed — another
// replica took the claim over while ours was stale — and the caller
// must retire the session rather than keep writing state the new owner
// also writes.
func (s *Server) refreshClaim(clusterID string) error {
	if !s.claimsEnabled() {
		return nil
	}
	path := s.claimPath(clusterID)
	owner, _, err := readClaim(path)
	if errors.Is(err, os.ErrNotExist) {
		// Released or mid-steal; re-compete.
		return s.acquireClaim(clusterID)
	}
	if err != nil {
		return err
	}
	if owner != s.opts.ReplicaID {
		return &notOwnerError{owner: owner}
	}
	now := time.Now()
	return os.Chtimes(path, now, now)
}

// forceClaim asserts ownership unconditionally (atomic write-and-
// rename), fresh-foreign claims included. Only the checkpoint PUT path
// uses it: a PUT is an explicit transfer — the sender is draining and
// chose this replica, which outranks whatever the claim file says.
func (s *Server) forceClaim(clusterID string) error {
	if !s.claimsEnabled() {
		return nil
	}
	tmp, err := s.stageClaim()
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	return os.Rename(tmp, s.claimPath(clusterID))
}

// releaseClaim deletes the cluster's claim if it is still ours —
// after a failed drain hand-off, so any replica can adopt immediately
// instead of waiting out StaleClaimAfter.
func (s *Server) releaseClaim(clusterID string) {
	if !s.claimsEnabled() {
		return
	}
	path := s.claimPath(clusterID)
	owner, _, err := readClaim(path)
	if err != nil || owner != s.opts.ReplicaID {
		return
	}
	_ = os.Remove(path)
}
