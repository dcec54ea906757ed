package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"slaplace/api"
)

// liteSnap is a small but non-trivial snapshot: a couple of nodes, a
// job, and an app, with Now advancing per cycle so successive plans
// differ.
func liteSnap(cycle int) *api.Snapshot {
	now := float64(cycle) * 30
	return &api.Snapshot{
		SchemaVersion: api.SchemaVersion,
		Now:           now,
		Nodes: []api.Node{
			{ID: "n0", CPUMHz: 4000, MemMB: 8192},
			{ID: "n1", CPUMHz: 4000, MemMB: 8192},
		},
		Jobs: []api.Job{{
			ID: "j0", State: api.JobPending,
			RemainingMHzs: 100000 - now*500, MaxSpeedMHz: 2000, MemMB: 1024,
			GoalSec: 600, SubmittedSec: 0,
		}},
		Apps: []api.App{{
			ID: "a0", Lambda: 10 + now/10, RTGoalSec: 0.5,
			Model:         api.Model{Type: api.ModelMG1PS, DemandMHzs: 40, CoreSpeedMHz: 4000},
			InstanceMemMB: 512, MaxPerInstanceMHz: 2000,
		}},
	}
}

// postStatus POSTs a plan request and returns only the HTTP status and
// decoded error body (for tests that expect a refusal).
func postStatus(t *testing.T, url string, req *api.PlanRequest) (int, api.ErrorResponse) {
	t.Helper()
	if req.SchemaVersion == 0 {
		req.SchemaVersion = api.SchemaVersion
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/plan", api.ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var e api.ErrorResponse
	_ = json.Unmarshal(data, &e)
	return resp.StatusCode, e
}

func getReadyz(t *testing.T, url string) (int, api.ReadyResponse) {
	t.Helper()
	resp, err := http.Get(url + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ry api.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ry); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ry
}

func getHealthz(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestReadyzLifecycle is the liveness/readiness split regression test:
// a durable daemon reports "restoring" until the state scan runs,
// "ready" after, "draining" once Drain starts — while /v1/healthz
// answers 200 through all three.
func TestReadyzLifecycle(t *testing.T) {
	s := New(Options{StateDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, ry := getReadyz(t, ts.URL); code != http.StatusServiceUnavailable || ry.Status != api.ReadyStatusRestoring {
		t.Fatalf("before scan: %d %q, want 503 restoring", code, ry.Status)
	}
	if code := getHealthz(t, ts.URL); code != http.StatusOK {
		t.Fatalf("healthz while restoring = %d, want 200 (liveness is not readiness)", code)
	}

	if _, err := s.ScanState(); err != nil {
		t.Fatal(err)
	}
	if code, ry := getReadyz(t, ts.URL); code != http.StatusOK || ry.Status != api.ReadyStatusReady {
		t.Fatalf("after scan: %d %q, want 200 ready", code, ry.Status)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain of an empty server: %v", err)
	}
	if code, ry := getReadyz(t, ts.URL); code != http.StatusServiceUnavailable || ry.Status != api.ReadyStatusDraining {
		t.Fatalf("draining: %d %q, want 503 draining", code, ry.Status)
	}
	if code := getHealthz(t, ts.URL); code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", code)
	}

	// Draining refuses new sessions and inbound migrations.
	if code, _ := postStatus(t, ts.URL, &api.PlanRequest{ClusterID: "new", Snapshot: liteSnap(0)}); code != http.StatusServiceUnavailable {
		t.Fatalf("new session while draining = %d, want 503", code)
	}

	// A stateless server is ready from the start.
	s2 := New(Options{})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if code, ry := getReadyz(t, ts2.URL); code != http.StatusOK || ry.Status != api.ReadyStatusReady {
		t.Fatalf("stateless server: %d %q, want 200 ready", code, ry.Status)
	}
}

// TestClaimConcurrentAdoption is the adoption-race regression test:
// two replicas sharing a state dir race to restore the same cluster;
// the claim file must pick exactly one winner, and the loser's error
// must name the winner (the 421 hint).
func TestClaimConcurrentAdoption(t *testing.T) {
	for round := 0; round < 8; round++ {
		stateDir := t.TempDir()

		// Seed a checkpoint with a claimless daemon (single-node mode),
		// then retire it.
		seed := New(Options{StateDir: stateDir})
		tsSeed := httptest.NewServer(seed.Handler())
		for i := 0; i < 3; i++ {
			if code, e := postStatus(t, tsSeed.URL, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(i)}); code != http.StatusOK {
				t.Fatalf("seed cycle %d: %d %s", i, code, e.Error)
			}
		}
		tsSeed.Close()

		a := New(Options{StateDir: stateDir, ReplicaID: "http://replica-a"})
		b := New(Options{StateDir: stateDir, ReplicaID: "http://replica-b"})

		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, s := range []*Server{a, b} {
			wg.Add(1)
			go func(i int, s *Server) {
				defer wg.Done()
				_, _, errs[i] = s.session("c", 0, nil)
			}(i, s)
		}
		wg.Wait()

		winners := 0
		for i, err := range errs {
			if err == nil {
				winners++
				continue
			}
			var notOwner *notOwnerError
			if !errors.As(err, &notOwner) {
				t.Fatalf("round %d: replica %d failed with %v, want notOwnerError", round, i, err)
			}
			if notOwner.owner != "http://replica-a" && notOwner.owner != "http://replica-b" {
				t.Fatalf("round %d: loser's error names %q, not the winner", round, notOwner.owner)
			}
		}
		if winners != 1 {
			t.Fatalf("round %d: %d replicas adopted cluster \"c\", want exactly 1", round, winners)
		}
	}
}

// TestClaimWithoutOwnerIsAnError: claims are published whole, so a claim
// file naming no owner is damage. It must fail the adoption loudly —
// never be taken for an owner called "" (a 421 with no hint), and never
// be left behind by a winner for a racing loser to read.
func TestClaimWithoutOwnerIsAnError(t *testing.T) {
	stateDir := t.TempDir()
	s := New(Options{StateDir: stateDir, ReplicaID: "http://replica-a"})
	if err := os.WriteFile(s.claimPath("c"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.session("c", 0, nil)
	var notOwner *notOwnerError
	if err == nil || errors.As(err, &notOwner) {
		t.Fatalf("empty claim file: session error %v, want a plain failure", err)
	}
	if err := s.refreshClaim("c"); err == nil || errors.As(err, &notOwner) {
		t.Fatalf("empty claim file: refresh error %v, want a plain failure", err)
	}

	// A won claim is complete the moment it exists, and the temp file it
	// was staged in is gone.
	if err := s.acquireClaim("d"); err != nil {
		t.Fatal(err)
	}
	if owner, _, err := readClaim(s.claimPath("d")); err != nil || owner != "http://replica-a" {
		t.Fatalf("fresh claim reads %q, %v", owner, err)
	}
	left, err := filepath.Glob(filepath.Join(stateDir, ".claim-*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("staging files left behind: %v %v", left, err)
	}
}

// TestClaimStaleTakeoverAndDepose: a dead replica's claim goes stale
// and a peer may steal it; if the "dead" replica was merely idle, its
// next checkpoint refresh must notice the depose and retire the
// session instead of double-writing the cluster's state.
func TestClaimStaleTakeoverAndDepose(t *testing.T) {
	stateDir := t.TempDir()
	a := New(Options{StateDir: stateDir, ReplicaID: "http://a", StaleClaimAfter: time.Hour})
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	if code, e := postStatus(t, tsA.URL, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(0)}); code != http.StatusOK {
		t.Fatalf("seed: %d %s", code, e.Error)
	}

	b := New(Options{StateDir: stateDir, ReplicaID: "http://b", StaleClaimAfter: time.Hour})
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	// While A's claim is fresh, B must bounce the cluster to A.
	if code, e := postStatus(t, tsB.URL, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(1)}); code != http.StatusMisdirectedRequest || e.Owner != "http://a" {
		t.Fatalf("fresh foreign claim: %d owner=%q, want 421 owner=http://a", code, e.Owner)
	}

	// Age the claim past the staleness window: now B may take over.
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(a.claimPath("c"), old, old); err != nil {
		t.Fatal(err)
	}
	if code, e := postStatus(t, tsB.URL, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(1)}); code != http.StatusOK {
		t.Fatalf("stale takeover: %d %s", code, e.Error)
	}

	// A still holds a session object; its next cycle's checkpoint
	// refresh must detect the depose and retire it...
	if code, _ := postStatus(t, tsA.URL, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(2)}); code != http.StatusOK {
		t.Fatalf("deposed replica's in-flight cycle should still answer: %d", code)
	}
	if a.lookup("c") != nil {
		t.Fatal("deposed session not retired")
	}
	// ...and the request after that must re-route to B.
	if code, e := postStatus(t, tsA.URL, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(3)}); code != http.StatusMisdirectedRequest || e.Owner != "http://b" {
		t.Fatalf("post-depose request: %d owner=%q, want 421 owner=http://b", code, e.Owner)
	}
}

// fleetServer builds a serve.Server whose ReplicaID is its own base
// URL — the convention the drain hand-off and 421 hints rely on. The
// caller fills in Peers once every fleet member's URL exists, then
// calls start.
func fleetServer(t *testing.T, stateDir string) (*Server, string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String()
	s := New(Options{StateDir: stateDir, ReplicaID: url})
	start := func() {
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = l
		ts.Start()
		t.Cleanup(ts.Close)
	}
	return s, url, start
}

// TestDrainHandsOffToRingPeer: SIGTERM's server half. Draining must
// push each session's checkpoint into the ring-chosen peer, which
// continues the plan sequence byte-identically from the next cycle.
func TestDrainHandsOffToRingPeer(t *testing.T) {
	stateDir := t.TempDir()

	sA, urlA, startA := fleetServer(t, stateDir)
	sB, urlB, startB := fleetServer(t, stateDir)
	sA.opts.Peers = []string{urlB}
	sB.opts.Peers = []string{urlA}
	startA()
	startB()

	// Reference: an uninterrupted single server.
	ref := httptest.NewServer(New(Options{}).Handler())
	defer ref.Close()

	const cycles = 3
	for i := 0; i < cycles; i++ {
		refResp, refPlan := postPlan(t, ref.URL, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(i)})
		gotResp, gotPlan := postPlan(t, urlA, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(i)})
		if refResp.Cycle != gotResp.Cycle || string(refPlan) != string(gotPlan) {
			t.Fatalf("cycle %d differs from reference before drain", i+1)
		}
	}

	if err := sA.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if sA.lookup("c") != nil {
		t.Fatal("drained server still holds the session")
	}

	// The receiver continues exactly where the drained server stopped.
	for i := cycles; i < cycles+2; i++ {
		refResp, refPlan := postPlan(t, ref.URL, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(i)})
		gotResp, gotPlan := postPlan(t, urlB, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(i)})
		if gotResp.Cycle != i+1 || refResp.Cycle != i+1 {
			t.Fatalf("cycle after hand-off = %d, want %d", gotResp.Cycle, i+1)
		}
		if string(refPlan) != string(gotPlan) {
			t.Fatalf("cycle %d differs from uninterrupted reference after hand-off", i+1)
		}
	}

	// The drained server redirects stragglers to the new owner.
	if code, e := postStatus(t, urlA, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(cycles + 2)}); code != http.StatusServiceUnavailable &&
		!(code == http.StatusMisdirectedRequest && e.Owner == urlB) {
		t.Fatalf("straggler at drained server: %d owner=%q", code, e.Owner)
	}
}

// TestDrainWithoutPeersKeepsStateAdoptable: when every hand-off fails
// (no peers), drain must leave the checkpoint on disk with the claim
// released so any later replica adopts without a staleness wait.
func TestDrainWithoutPeersKeepsStateAdoptable(t *testing.T) {
	stateDir := t.TempDir()
	a := New(Options{StateDir: stateDir, ReplicaID: "http://a", StaleClaimAfter: time.Hour})
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	if code, e := postStatus(t, tsA.URL, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(0)}); code != http.StatusOK {
		t.Fatalf("seed: %d %s", code, e.Error)
	}

	if err := a.Drain(context.Background()); err == nil {
		t.Fatal("drain with no peers should report the failed hand-off")
	}

	// Despite the fresh-claim window (an hour), a new replica adopts
	// immediately: the claim was released.
	b := New(Options{StateDir: stateDir, ReplicaID: "http://b", StaleClaimAfter: time.Hour})
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	resp, _ := postPlan(t, tsB.URL, &api.PlanRequest{ClusterID: "c", Snapshot: liteSnap(1)})
	if resp.Cycle != 2 {
		t.Fatalf("adopted session resumed at cycle %d, want 2", resp.Cycle)
	}
}

// TestScanStateRestoresEagerly: the startup scan restores every
// checkpoint up front (claims permitting) instead of waiting for each
// cluster's first request.
func TestScanStateRestoresEagerly(t *testing.T) {
	stateDir := t.TempDir()
	seed := New(Options{StateDir: stateDir})
	tsSeed := httptest.NewServer(seed.Handler())
	for _, id := range []string{"c1", "c2", "weird/../id"} {
		if code, e := postStatus(t, tsSeed.URL, &api.PlanRequest{ClusterID: id, Snapshot: liteSnap(0)}); code != http.StatusOK {
			t.Fatalf("seed %q: %d %s", id, code, e.Error)
		}
	}
	tsSeed.Close()

	s := New(Options{StateDir: stateDir, ReplicaID: "http://a"})
	n, err := s.ScanState()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("scan restored %d sessions, want 3", n)
	}
	for _, id := range []string{"c1", "c2", "weird/../id"} {
		if s.lookup(id) == nil {
			t.Fatalf("cluster %q not restored by the scan", id)
		}
	}

	// A second replica scanning the same dir adopts nothing — every
	// cluster is freshly claimed.
	s2 := New(Options{StateDir: stateDir, ReplicaID: "http://b"})
	if n, err := s2.ScanState(); err != nil || n != 0 {
		t.Fatalf("second scanner restored %d (err %v), want 0", n, err)
	}
}
