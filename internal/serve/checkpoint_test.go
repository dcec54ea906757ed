package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"slaplace/api"
	"slaplace/internal/core"
)

// postPlanNegotiated POSTs one plan request using the binary codec for
// the body and, when acceptBinary, for the response too. It returns
// the decoded response and the response Content-Type.
func postPlanNegotiated(t *testing.T, url string, req *api.PlanRequest, acceptBinary bool) (*api.PlanResponse, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := api.EncodePlanRequestBinary(&buf, req); err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, url+"/v1/plan", &buf)
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", api.ContentTypeBinary)
	if acceptBinary {
		httpReq.Header.Set("Accept", api.ContentTypeBinary)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/plan (binary): %d: %s", resp.StatusCode, body)
	}
	ct := resp.Header.Get("Content-Type")
	var decoded *api.PlanResponse
	if ct == api.ContentTypeBinary {
		decoded, err = api.DecodePlanResponseBinary(bytes.NewReader(body))
	} else {
		decoded, err = api.DecodePlanResponse(bytes.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	return decoded, ct
}

// getCheckpoint fetches a cluster's checkpoint; binary selects the
// wire codec via the Accept header.
func getCheckpoint(t *testing.T, url, cluster string, binary bool) (*api.Checkpoint, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/sessions/"+cluster+"/checkpoint", nil)
	if err != nil {
		t.Fatal(err)
	}
	if binary {
		req.Header.Set("Accept", api.ContentTypeBinary)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var ck *api.Checkpoint
	if binary {
		if got := resp.Header.Get("Content-Type"); got != api.ContentTypeBinary {
			t.Fatalf("checkpoint Content-Type %q, want binary", got)
		}
		ck, err = api.DecodeCheckpointBinary(resp.Body)
	} else {
		ck, err = api.DecodeCheckpoint(resp.Body)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ck, resp.StatusCode
}

// putCheckpoint uploads a checkpoint (binary codec) and returns the
// response status.
func putCheckpoint(t *testing.T, url, cluster string, ck *api.Checkpoint) int {
	t.Helper()
	var buf bytes.Buffer
	if err := api.EncodeCheckpointBinary(&buf, ck); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url+"/v1/sessions/"+cluster+"/checkpoint", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", api.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeBinaryNegotiation is the binary codec's serving contract:
// for every golden controller, driving the same snapshot sequence
// through the binary codec (request and response) produces plans
// BYTE-IDENTICAL — as canonical JSON — to the JSON transport, and the
// response Content-Type follows the Accept header.
func TestServeBinaryNegotiation(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden replays")
	}
	for name, newCtrl := range goldenControllers() {
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			snaps := captureSnapshots(t, newCtrl)
			srv := New(Options{NewController: newCtrl})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			for i, snap := range snaps {
				jsonResp, _ := postPlan(t, ts.URL, &api.PlanRequest{
					ClusterID: "json", Snapshot: snap,
				})
				binResp, ct := postPlanNegotiated(t, ts.URL, &api.PlanRequest{
					ClusterID: "bin", Snapshot: snap,
				}, true)
				if ct != api.ContentTypeBinary {
					t.Fatalf("cycle %d: response Content-Type %q, want binary", i, ct)
				}
				// The two sessions intentionally differ only in cluster ID.
				binResp.ClusterID, jsonResp.ClusterID = "", ""
				got, err := json.Marshal(binResp)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(jsonResp)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("cycle %d: binary-transport response differs from JSON transport\nbin:  %.200s\njson: %.200s",
						i, got, want)
				}
			}

			// Mixed negotiation: binary request, JSON response.
			mixResp, ct := postPlanNegotiated(t, ts.URL, &api.PlanRequest{
				ClusterID: "mix", Snapshot: snaps[0],
			}, false)
			if ct != api.ContentTypeJSON {
				t.Errorf("without Accept: Content-Type %q, want JSON", ct)
			}
			if mixResp.Cycle != 1 {
				t.Errorf("mixed-transport cycle %d", mixResp.Cycle)
			}
		})
	}
}

// TestServeCheckpointRestartGolden is the durability contract: for
// every golden controller, a daemon driven through half the golden
// snapshot sequence, killed without warning (nothing but the state
// dir survives), restarted, and driven through the rest produces —
// cycle for cycle — plans byte-identical to an uninterrupted
// in-process session, and the plan-sequence digest still matches the
// committed golden fixture.
func TestServeCheckpointRestartGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden replays")
	}
	goldenPath := filepath.Join("..", "experiments", "testdata", "golden_plans.json")
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}

	for name, newCtrl := range goldenControllers() {
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			snaps := captureSnapshots(t, newCtrl)
			stateDir := t.TempDir()

			// Uninterrupted reference: the same server WITHOUT a restart.
			ref := httptest.NewServer(New(Options{NewController: newCtrl}).Handler())
			defer ref.Close()

			digester := sha256.New()
			drive := func(url string, snap *api.Snapshot, cycle int, digest bool) []byte {
				t.Helper()
				resp, raw := postPlan(t, url, &api.PlanRequest{ClusterID: "g", Snapshot: snap})
				if resp.Cycle != cycle {
					t.Fatalf("cycle %d, want %d", resp.Cycle, cycle)
				}
				if digest {
					corePlan, err := resp.Plan.CorePlan()
					if err != nil {
						t.Fatal(err)
					}
					io.WriteString(digester, corePlan.Digest())
				}
				return raw
			}

			// First half against daemon A.
			half := len(snaps) / 2
			if half == 0 {
				t.Fatal("golden run too short to split")
			}
			srvA := httptest.NewServer(New(Options{
				NewController: newCtrl, StateDir: stateDir,
			}).Handler())
			for i := 0; i < half; i++ {
				want := drive(ref.URL, snaps[i], i+1, false)
				got := drive(srvA.URL, snaps[i], i+1, true)
				if !bytes.Equal(got, want) {
					t.Fatalf("cycle %d (pre-kill): plan differs from uninterrupted reference", i)
				}
			}
			// kill -9: the process state vanishes; only StateDir survives.
			srvA.Close()

			// Second half against a fresh daemon over the same state dir.
			srvB := httptest.NewServer(New(Options{
				NewController: newCtrl, StateDir: stateDir,
			}).Handler())
			defer srvB.Close()
			for i := half; i < len(snaps); i++ {
				want := drive(ref.URL, snaps[i], i+1, false)
				got := drive(srvB.URL, snaps[i], i+1, true)
				if !bytes.Equal(got, want) {
					t.Fatalf("cycle %d (post-restart): plan differs from uninterrupted reference", i)
				}
			}

			want, ok := golden[name]
			if !ok {
				t.Fatalf("case %s missing from golden fixture", name)
			}
			if got := hex.EncodeToString(digester.Sum(nil)); got != want {
				t.Errorf("restarted plan-sequence digest %s, want golden %s "+
					"(the checkpoint/restore cycle changed planner behavior)", got, want)
			}
		})
	}
}

// TestServeCheckpointEndpoints: export/import over HTTP — the
// migration path. A checkpoint GET from daemon A, PUT into daemon B,
// continues the plan sequence byte-identically; the guard rails (404
// unknown cluster, 409 existing session, 400 bad body or mismatched
// cluster) hold.
func TestServeCheckpointEndpoints(t *testing.T) {
	snaps := captureSnapshots(t, func() core.Controller { return core.New(core.DefaultConfig()) })
	if len(snaps) < 4 {
		t.Fatalf("need 4 snapshots, got %d", len(snaps))
	}
	srvA := httptest.NewServer(New(Options{}).Handler())
	defer srvA.Close()
	ref := httptest.NewServer(New(Options{}).Handler())
	defer ref.Close()

	if _, code := getCheckpoint(t, srvA.URL, "nope", false); code != http.StatusNotFound {
		t.Errorf("checkpoint of unknown cluster: %d, want 404", code)
	}

	for i := 0; i < 2; i++ {
		postPlan(t, srvA.URL, &api.PlanRequest{ClusterID: "mig", Snapshot: snaps[i]})
		postPlan(t, ref.URL, &api.PlanRequest{ClusterID: "mig", Snapshot: snaps[i]})
	}
	ckJSON, _ := getCheckpoint(t, srvA.URL, "mig", false)
	ckBin, _ := getCheckpoint(t, srvA.URL, "mig", true)
	jb, _ := json.Marshal(ckJSON)
	bb, _ := json.Marshal(ckBin)
	if !bytes.Equal(jb, bb) {
		t.Fatalf("JSON and binary checkpoint exports differ:\njson: %.200s\nbin:  %.200s", jb, bb)
	}
	if ckBin.Cycle != 2 || ckBin.ClusterID != "mig" || ckBin.Snapshot == nil || ckBin.Plan == nil {
		t.Fatalf("checkpoint shape: %+v", ckBin)
	}

	// Restore into daemon B and continue: bytes must match the
	// uninterrupted reference session.
	srvB := httptest.NewServer(New(Options{}).Handler())
	defer srvB.Close()
	if code := putCheckpoint(t, srvB.URL, "mig", ckBin); code != http.StatusNoContent {
		t.Fatalf("restore: %d, want 204", code)
	}
	for i := 2; i < 4; i++ {
		_, want := postPlan(t, ref.URL, &api.PlanRequest{ClusterID: "mig", Snapshot: snaps[i]})
		resp, got := postPlan(t, srvB.URL, &api.PlanRequest{ClusterID: "mig", Snapshot: snaps[i]})
		if resp.Cycle != i+1 {
			t.Errorf("post-migration cycle %d, want %d", resp.Cycle, i+1)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cycle %d: migrated session's plan differs from reference", i)
		}
	}

	// Guard rails.
	if code := putCheckpoint(t, srvB.URL, "mig", ckBin); code != http.StatusConflict {
		t.Errorf("restore over live session: %d, want 409", code)
	}
	if code := putCheckpoint(t, srvB.URL, "other", ckBin); code != http.StatusBadRequest {
		t.Errorf("restore under mismatched cluster ID: %d, want 400", code)
	}
	req, err := http.NewRequest(http.MethodPut, srvB.URL+"/v1/sessions/x/checkpoint",
		strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed checkpoint body: %d, want 400", resp.StatusCode)
	}
	// DELETE on the resource is not part of the protocol.
	req, err = http.NewRequest(http.MethodDelete, srvB.URL+"/v1/sessions/mig/checkpoint", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE checkpoint: %d, want 405", resp.StatusCode)
	}
}

// TestServeShardedCheckpointRestart: a SHARDED session survives kill
// -9 with its partition boundaries and reshard accounting intact — the
// restarted daemon continues byte-identically and reports the same
// shard diagnostics.
func TestServeShardedCheckpointRestart(t *testing.T) {
	snaps := captureSnapshots(t, func() core.Controller { return core.New(core.DefaultConfig()) })
	if len(snaps) < 4 {
		t.Fatalf("need 4 snapshots, got %d", len(snaps))
	}
	stateDir := t.TempDir()
	ref := httptest.NewServer(New(Options{}).Handler())
	defer ref.Close()

	srvA := httptest.NewServer(New(Options{StateDir: stateDir}).Handler())
	for i := 0; i < 2; i++ {
		postPlan(t, ref.URL, &api.PlanRequest{ClusterID: "s", Snapshot: snaps[i], Shards: 2})
		postPlan(t, srvA.URL, &api.PlanRequest{ClusterID: "s", Snapshot: snaps[i], Shards: 2})
	}
	srvA.Close() // kill -9

	srvB := httptest.NewServer(New(Options{StateDir: stateDir}).Handler())
	defer srvB.Close()
	for i := 2; i < 4; i++ {
		// No shards hint on the restarted daemon: the checkpoint's own
		// shard count must decide the session's shape.
		_, want := postPlan(t, ref.URL, &api.PlanRequest{ClusterID: "s", Snapshot: snaps[i], Shards: 2})
		_, got := postPlan(t, srvB.URL, &api.PlanRequest{ClusterID: "s", Snapshot: snaps[i]})
		if !bytes.Equal(got, want) {
			t.Errorf("cycle %d: restarted sharded session's plan differs from reference", i)
		}
	}

	resp, err := http.Get(srvB.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Sessions) != 1 {
		t.Fatalf("sessions: %+v", stats.Sessions)
	}
	ss := stats.Sessions[0]
	if ss.Shards != 2 || !strings.HasPrefix(ss.Controller, "sharded2(") {
		t.Errorf("restored shape: shards=%d controller=%q, want sharded2", ss.Shards, ss.Controller)
	}
	if ss.Cycles != 4 {
		t.Errorf("restored cycle count %d, want 4", ss.Cycles)
	}
}

// TestServeStateDirRobustness: a corrupt or foreign state file must
// cost the checkpoint, never the daemon — the session comes up fresh
// and a note is logged, and the first plan replaces the corrupt file
// with a checkpoint of the fresh session, rolled forward every plan.
func TestServeStateDirRobustness(t *testing.T) {
	snaps := captureSnapshots(t, func() core.Controller { return core.New(core.DefaultConfig()) })
	stateDir := t.TempDir()

	// Corrupt file: valid header, garbage tail.
	if err := os.WriteFile(filepath.Join(stateDir, "bad.ckpt"),
		[]byte("SLPB\x01\x05garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	var logMu sync.Mutex
	srv := New(Options{
		StateDir: stateDir,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := postPlan(t, ts.URL, &api.PlanRequest{ClusterID: "bad", Snapshot: snaps[0]}); resp.Cycle != 1 {
		t.Fatalf("fresh session over corrupt checkpoint: cycle %d", resp.Cycle)
	}
	logMu.Lock()
	complained := len(logged) > 0 && strings.Contains(logged[0], "unreadable")
	logMu.Unlock()
	if !complained {
		t.Errorf("corrupt state file not logged: %q", logged)
	}

	// Every answered plan is on disk: the corrupt file now decodes at
	// cycle 1, and at cycle 2 after the next plan.
	path := filepath.Join(stateDir, "bad.ckpt")
	for cycle := 1; cycle <= 2; cycle++ {
		if cycle > 1 {
			postPlan(t, ts.URL, &api.PlanRequest{ClusterID: "bad", Snapshot: snaps[1%len(snaps)]})
		}
		ck, err := api.DecodeCheckpointBinary(mustOpen(t, path))
		if err != nil {
			t.Fatalf("state file after cycle %d: %v", cycle, err)
		}
		if ck.Cycle != cycle {
			t.Errorf("state file at cycle %d, want %d", ck.Cycle, cycle)
		}
	}

	// Cluster IDs with path separators stay inside the state dir.
	postPlan(t, ts.URL, &api.PlanRequest{ClusterID: "a/../b", Snapshot: snaps[0]})
	postPlan(t, ts.URL, &api.PlanRequest{ClusterID: "a/../b", Snapshot: snaps[1%len(snaps)]})
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ckpt") {
			t.Errorf("unexpected state-dir entry %q", e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(stateDir, url.PathEscape("a/../b")+".ckpt")); err != nil {
		t.Errorf("escaped checkpoint file missing: %v", err)
	}
}

// TestServeRejectsNodelessDelta: a delta may not empty the node list,
// which no full snapshot may do either. On a durable daemon the refused
// delta leaves the session at its cycle and its state file decodable.
func TestServeRejectsNodelessDelta(t *testing.T) {
	snaps := captureSnapshots(t, func() core.Controller { return core.New(core.DefaultConfig()) })
	stateDir := t.TempDir()
	ts := httptest.NewServer(New(Options{StateDir: stateDir}).Handler())
	defer ts.Close()
	postPlan(t, ts.URL, &api.PlanRequest{ClusterID: "c", Snapshot: snaps[0]})

	// The JSON writer drops an empty node list; the binary codec keeps
	// it, as a client's "nodes": [] would.
	var buf bytes.Buffer
	empty := &api.SnapshotDelta{BaseCycle: 1, Now: snaps[0].Now, Nodes: []api.Node{}}
	if err := api.EncodePlanRequestBinary(&buf, &api.PlanRequest{ClusterID: "c", Delta: empty}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/plan", api.ContentTypeBinary, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delta with an empty node list: status %d, want 400", resp.StatusCode)
	}

	ck, err := api.DecodeCheckpointBinary(mustOpen(t, filepath.Join(stateDir, "c.ckpt")))
	if err != nil {
		t.Fatalf("state file after the refused delta: %v", err)
	}
	if ck.Cycle != 1 {
		t.Errorf("state file at cycle %d, want 1", ck.Cycle)
	}
	next, _ := postPlan(t, ts.URL, &api.PlanRequest{ClusterID: "c",
		Delta: &api.SnapshotDelta{BaseCycle: 1, Now: snaps[0].Now}})
	if next.Cycle != 2 {
		t.Errorf("cycle %d after the next delta, want 2", next.Cycle)
	}
}

func mustOpen(t *testing.T, path string) io.Reader {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

// TestServeCheckpointSoak: checkpoint export/import traffic racing
// with plan traffic — run under -race in CI. Half the clusters plan
// continuously on daemon A while the other half are exported from A
// and imported into daemon B mid-flight; every migrated session must
// continue byte-identically.
func TestServeCheckpointSoak(t *testing.T) {
	base := captureSnapshots(t, func() core.Controller { return core.New(core.DefaultConfig()) })
	srvA := httptest.NewServer(New(Options{StateDir: t.TempDir()}).Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(New(Options{}).Handler())
	defer srvB.Close()

	const clusters = 6
	const cycles = 3
	snaps := make([]*api.Snapshot, clusters)
	for c := 0; c < clusters; c++ {
		snap := *base[0]
		apps := append([]api.App(nil), snap.Apps...)
		apps[0].Lambda += float64(c)
		snap.Apps = apps
		snaps[c] = &snap
	}

	var wg sync.WaitGroup
	for c := 0; c < clusters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := fmt.Sprintf("soak-%d", c)
			for r := 0; r < cycles; r++ {
				postPlan(t, srvA.URL, &api.PlanRequest{ClusterID: id, Snapshot: snaps[c]})
				if c%2 == 0 {
					// Checkpoint readers race the planners.
					if ck, code := getCheckpoint(t, srvA.URL, id, c%4 == 0); code != http.StatusOK || ck == nil {
						t.Errorf("cluster %s: checkpoint GET %d", id, code)
					}
				}
			}
			if c%2 == 1 {
				// Migrate to daemon B and verify bytes continue.
				ck, code := getCheckpoint(t, srvA.URL, id, true)
				if code != http.StatusOK {
					t.Errorf("cluster %s: export %d", id, code)
					return
				}
				if code := putCheckpoint(t, srvB.URL, id, ck); code != http.StatusNoContent {
					t.Errorf("cluster %s: import %d", id, code)
					return
				}
				_, want := postPlan(t, srvA.URL, &api.PlanRequest{ClusterID: id, Snapshot: snaps[c]})
				_, got := postPlan(t, srvB.URL, &api.PlanRequest{ClusterID: id, Snapshot: snaps[c]})
				if !bytes.Equal(got, want) {
					t.Errorf("cluster %s: migrated continuation differs", id)
				}
			}
		}(c)
	}
	wg.Wait()
}
