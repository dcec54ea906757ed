package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"slaplace/api"
	"slaplace/internal/control"
	"slaplace/internal/core"
	"slaplace/internal/experiments"
	"slaplace/internal/forecast"
)

// captureController records every planned snapshot in wire form
// without changing the plans (mirrors the serve package's test
// helper).
type captureController struct {
	inner core.Controller
	snaps []*api.Snapshot
}

func (c *captureController) Name() string { return c.inner.Name() }

func (c *captureController) Plan(st *core.State) *core.Plan {
	if snap, err := api.FromCoreState(st); err == nil {
		c.snaps = append(c.snaps, snap)
	}
	return c.inner.Plan(st)
}

// daemon is one slaplace-serve process under test.
type daemon struct {
	cmd *exec.Cmd
	url string
}

// startDaemon launches the built binary on an ephemeral port and
// parses the bound address from its log output. Extra flags are
// appended verbatim. The daemon is killed and reaped when the test
// ends, however it ends.
func startDaemon(t *testing.T, bin, stateDir string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-state-dir", stateDir}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(d.kill9)
	addrRe := regexp.MustCompile(`listening on (\S+) `)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
			}
		}
	}()
	select {
	case addr := <-addrCh:
		d.url = "http://" + addr
		return d
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not announce its listen address")
		return nil
	}
}

// kill9 terminates the daemon the hard way: SIGKILL, no drain, no
// goodbye. Only the state dir survives. Once the daemon is reaped it
// does nothing, so the cleanup may follow an explicit kill9.
func (d *daemon) kill9() {
	if d.cmd.ProcessState != nil {
		return // already reaped
	}
	d.cmd.Process.Kill()
	d.cmd.Wait() // reap; exit error is the point
}

// plan POSTs one snapshot and returns the response plan's core digest.
func (d *daemon) plan(t *testing.T, snap *api.Snapshot, wantCycle int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := api.EncodePlanRequest(&buf, &api.PlanRequest{ClusterID: "e2e", Snapshot: snap}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.url+"/v1/plan", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/plan: %d: %s", resp.StatusCode, body)
	}
	decoded, err := api.DecodePlanResponse(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Cycle != wantCycle {
		t.Fatalf("cycle %d, want %d", decoded.Cycle, wantCycle)
	}
	corePlan, err := decoded.Plan.CorePlan()
	if err != nil {
		t.Fatal(err)
	}
	return corePlan.Digest()
}

// TestCrashRestartEndToEnd proves the durability claim against the
// real binary: drive half the golden snapshot sequence into a daemon
// with a state dir, kill -9 the process, start a fresh one over the
// same dir, drive the rest — and require the full wire-replayed plan
// sequence to digest to the committed golden fixture, exactly as an
// uninterrupted in-process run does.
func TestCrashRestartEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real daemon")
	}

	golden := map[string]string{}
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "golden_plans.json"))
	if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	want, ok := golden["baseline/utility"]
	if !ok {
		t.Fatal("baseline/utility missing from golden fixture")
	}

	// The daemon's default flags build core.New(core.DefaultConfig()) —
	// the golden fixture's "baseline/utility" controller.
	cap := &captureController{inner: core.New(core.DefaultConfig())}
	if _, err := experiments.Run(experiments.BaselineScenario(42, cap)); err != nil {
		t.Fatal(err)
	}
	snaps := cap.snaps
	if len(snaps) < 2 {
		t.Fatalf("golden run too short: %d snapshots", len(snaps))
	}

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "slaplace-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	stateDir := filepath.Join(tmp, "state")
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		t.Fatal(err)
	}

	digester := sha256.New()
	half := len(snaps) / 2

	d := startDaemon(t, bin, stateDir)
	for i := 0; i < half; i++ {
		io.WriteString(digester, d.plan(t, snaps[i], i+1))
	}
	d.kill9()

	d = startDaemon(t, bin, stateDir)
	for i := half; i < len(snaps); i++ {
		io.WriteString(digester, d.plan(t, snaps[i], i+1))
	}

	if got := hex.EncodeToString(digester.Sum(nil)); got != want {
		t.Errorf("plan-sequence digest across kill -9 = %s, want golden %s", got, want)
	}

	// The restarted daemon's stats must show the restored session, not
	// a fresh one.
	resp, err := http.Get(d.url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Sessions) != 1 || stats.Sessions[0].Cycles != len(snaps) {
		t.Errorf("restored session stats: %+v", stats.Sessions)
	}
	if len(stats.Sessions) == 1 {
		fmt.Printf("e2e: %d cycles across kill -9, controller %s\n",
			stats.Sessions[0].Cycles, stats.Sessions[0].Controller)
	}
}

// TestCrashRestartForecastEndToEnd proves forecast state rides the
// checkpoint through a real kill -9: a daemon started with -forecast
// holt plans half the golden snapshot sequence, dies hard, and a
// fresh process — deliberately started WITHOUT the -forecast flag —
// resumes over the same state dir. The checkpoint alone must re-arm
// prediction: every plan across the crash must digest-match an
// uninterrupted in-process predictive session, and the restarted
// daemon's stats must still name the predictor.
func TestCrashRestartForecastEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real daemon")
	}

	cap := &captureController{inner: core.New(core.DefaultConfig())}
	if _, err := experiments.Run(experiments.BaselineScenario(42, cap)); err != nil {
		t.Fatal(err)
	}
	snaps := cap.snaps
	if len(snaps) < 2 {
		t.Fatalf("golden run too short: %d snapshots", len(snaps))
	}

	// The uninterrupted reference: an in-process session with the same
	// configuration the -forecast holt flag builds.
	cfg := forecast.DefaultConfig()
	cfg.Predictor = forecast.PredictorHolt
	ref, err := control.NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.EnableForecast(cfg); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, snap := range snaps {
		plan, _, err := ref.Propose(snap)
		if err != nil {
			t.Fatal(err)
		}
		corePlan, err := plan.CorePlan()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, corePlan.Digest())
	}

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "slaplace-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	stateDir := filepath.Join(tmp, "state")
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		t.Fatal(err)
	}

	half := len(snaps) / 2
	d := startDaemon(t, bin, stateDir, "-forecast", "holt")
	for i := 0; i < half; i++ {
		if got := d.plan(t, snaps[i], i+1); got != want[i] {
			t.Fatalf("cycle %d: predictive plan digest %s, want %s", i+1, got, want[i])
		}
	}
	d.kill9()

	// No -forecast flag here: the restored checkpoint must carry it.
	d = startDaemon(t, bin, stateDir)
	for i := half; i < len(snaps); i++ {
		if got := d.plan(t, snaps[i], i+1); got != want[i] {
			t.Fatalf("cycle %d (post-restart): predictive plan digest %s, want %s", i+1, got, want[i])
		}
	}

	resp, err := http.Get(d.url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Sessions) != 1 || stats.Sessions[0].Cycles != len(snaps) {
		t.Errorf("restored session stats: %+v", stats.Sessions)
	}
	if len(stats.Sessions) == 1 && stats.Sessions[0].ForecastPredictor != forecast.PredictorHolt {
		t.Errorf("restored session forecast predictor = %q, want %q",
			stats.Sessions[0].ForecastPredictor, forecast.PredictorHolt)
	}
}
