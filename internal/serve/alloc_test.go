package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"slaplace/api"
	"slaplace/internal/core"
	"slaplace/internal/forecast"
	"slaplace/internal/rng"
)

// steadyCluster is a saturated long-lived cluster the way an executor
// would report it: two resident multi-day jobs and four web instances
// on every node, a backlog that fits nowhere, demand drifting each
// cycle. Every cycle it reports only what moved — the running jobs'
// remaining work, every app's arrival rate — and enacts the typed delta
// it gets back, so the daemon stays on the carry-over tier and its
// plans are share re-pricings, a few hundred each on average.
type steadyCluster struct {
	snap   api.Snapshot
	jobAt  map[string]int
	cycle  int
	demand *rng.Stream
	mean   []float64
}

func newSteadyCluster(nodes, jobs int) *steadyCluster {
	const period, coreMHz = 10, 4500
	c := &steadyCluster{
		snap:   api.Snapshot{SchemaVersion: api.SchemaVersion, Now: period},
		jobAt:  make(map[string]int, jobs),
		demand: rng.NewStream(1),
	}
	for i := 0; i < nodes; i++ {
		c.snap.Nodes = append(c.snap.Nodes, api.Node{ID: fmt.Sprintf("n%04d", i), CPUMHz: 18000, MemMB: 16000})
	}
	for i, lambda := range []float64{250, 400, 550, 300} {
		app := api.App{
			ID: fmt.Sprintf("web-%c", 'a'+i), Lambda: lambda * float64(nodes) / 500, RTGoalSec: float64(i + 1),
			Model:         api.Model{Type: api.ModelMG1PS, DemandMHzs: 1350, CoreSpeedMHz: coreMHz},
			InstanceMemMB: 1000, MaxPerInstanceMHz: coreMHz, MinInstances: nodes,
		}
		for _, n := range c.snap.Nodes {
			app.Instances = append(app.Instances, api.Instance{Node: n.ID, ShareMHz: 150})
		}
		c.mean = append(c.mean, app.Lambda)
		c.snap.Apps = append(c.snap.Apps, app)
	}
	for i := 0; i < jobs; i++ {
		days := 2 + 3*float64(i%97)/97
		job := api.Job{
			ID: fmt.Sprintf("j%07d", i), State: api.JobPending, MaxSpeedMHz: coreMHz,
			SubmittedSec: period, MemMB: 12000, RemainingMHzs: coreMHz * days / 4 * 86400,
		}
		job.GoalSec = period + 10*86400 + 3*job.RemainingMHzs/coreMHz
		if i < 2*nodes {
			job.State, job.Node, job.ShareMHz = api.JobRunning, c.snap.Nodes[i%nodes].ID, coreMHz
			job.MemMB, job.RemainingMHzs = 5000, coreMHz*days*86400
			job.GoalSec = period + 3*job.RemainingMHzs/coreMHz
		}
		c.jobAt[job.ID] = i
		c.snap.Jobs = append(c.snap.Jobs, job)
	}
	return c
}

// request encodes the next plan request — the full snapshot first, the
// delta since the previous cycle afterwards — in the binary codec.
func (c *steadyCluster) request(t *testing.T) []byte {
	t.Helper()
	req := &api.PlanRequest{ClusterID: "steady", Reply: api.ReplyDelta}
	if c.cycle == 0 {
		req.Snapshot = &c.snap
	} else {
		d := &api.SnapshotDelta{BaseCycle: c.cycle, Now: c.snap.Now, UpsertApps: c.snap.Apps}
		for i := range c.snap.Jobs {
			if c.snap.Jobs[i].State == api.JobRunning {
				d.UpsertJobs = append(d.UpsertJobs, c.snap.Jobs[i])
			}
		}
		req.Delta = d
	}
	var buf bytes.Buffer
	if err := api.EncodePlanRequestBinary(&buf, req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// enact applies the reply's share re-pricings and moves the world one
// control period forward. (The first reply is the bootstrap delta: it
// starts every job and adds every instance where they already run.)
func (c *steadyCluster) enact(t *testing.T, resp *api.PlanResponse) {
	t.Helper()
	c.cycle = resp.Cycle
	for _, act := range resp.Delta {
		switch act.Type {
		case api.ActionSetJobShare:
			c.snap.Jobs[c.jobAt[act.Job]].ShareMHz = act.ShareMHz
		case api.ActionStartJob:
			job := &c.snap.Jobs[c.jobAt[act.Job]]
			if job.Node != act.Node {
				t.Fatalf("cycle %d: job %s placed on %s, runs on %q", resp.Cycle, act.Job, act.Node, job.Node)
			}
			job.ShareMHz = act.ShareMHz
		case api.ActionSetInstanceShare, api.ActionAddInstance:
			for i := range c.snap.Apps {
				app := &c.snap.Apps[i]
				for k := range app.Instances {
					if app.ID == act.App && app.Instances[k].Node == act.Node {
						app.Instances[k].ShareMHz = act.ShareMHz
					}
				}
			}
		default:
			t.Fatalf("cycle %d: a steady cluster was told to %s", resp.Cycle, act.Type)
		}
	}
	const period = 10
	c.snap.Now += period
	for i := range c.snap.Jobs {
		if job := &c.snap.Jobs[i]; job.State == api.JobRunning {
			job.RemainingMHzs -= job.ShareMHz * period
		}
	}
	for i := range c.snap.Apps {
		app, mean := &c.snap.Apps[i], c.mean[i]
		next := app.Lambda + 0.2*(mean-app.Lambda) + 0.05*mean*c.demand.Normal(0, 1)
		app.Lambda = max(0.5*mean, min(1.5*mean, next))
	}
}

// TestSteadyRequestAllocationBudget pins what one steady-state plan
// request may allocate on the durable, forecasting daemon: binary delta
// in, carry-over plan, typed delta out, checkpoint exported, encoded,
// fsync'd and renamed before the reply. The request path converts each
// thing once and streams the checkpoint; before it did, the same
// request cost about 8 MB and 10 000 mallocs at 500/5000, most of it
// a second plan conversion and a checkpoint grown from an empty slice.
// The budget is about halfway between, so neither can creep back.
func TestSteadyRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the daemon's")
	}
	nodes, jobs := 500, 5000
	if testing.Short() {
		nodes, jobs = 100, 1000
	}
	// Cost is linear in cluster size above a fixed part (HTTP, forecast,
	// diagnostics) that does not shrink with it.
	maxBytes := uint64(300_000 + (4_500_000-300_000)*nodes/500)
	maxMallocs := uint64(400 + (7000-400)*nodes/500)

	holt := forecast.Config{Predictor: forecast.PredictorHolt}
	handler := New(Options{StateDir: t.TempDir(), Forecast: &holt}).Handler()
	cluster := newSteadyCluster(nodes, jobs)
	post := func() (resp *api.PlanResponse, bytesAllocated, mallocs uint64) {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(cluster.request(t)))
		req.Header.Set("Content-Type", api.ContentTypeBinary)
		req.Header.Set("Accept", api.ContentTypeBinary)
		w := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		handler.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusOK {
			t.Fatalf("POST /v1/plan: %d: %s", w.Code, w.Body.String())
		}
		resp, err := api.DecodePlanResponseBinary(w.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}

	const warmup, measured = 5, 20
	var sumBytes, sumMallocs uint64
	var repriced int
	for i := 0; i < warmup+measured; i++ {
		resp, b, m := post()
		if i > 0 && resp.PlanMode != core.PlanIncremental.String() {
			t.Fatalf("cycle %d planned %s: the cluster is not steady, the budget does not apply", resp.Cycle, resp.PlanMode)
		}
		if i >= warmup {
			repriced += len(resp.Delta)
			sumBytes += b
			sumMallocs += m
		}
		cluster.enact(t, resp)
	}
	// Drift crosses the planner's share tolerance every other cycle or
	// so; on average a plan re-prices about one share per node.
	if repriced/measured < nodes/2 {
		t.Fatalf("%d shares re-priced per plan: not the request the budget is for", repriced/measured)
	}
	perBytes, perMallocs := sumBytes/measured, sumMallocs/measured
	t.Logf("%d nodes / %d jobs: %.2f MB and %d mallocs per request (budget %.2f MB, %d)",
		nodes, jobs, float64(perBytes)/1e6, perMallocs, float64(maxBytes)/1e6, maxMallocs)
	if perBytes > maxBytes {
		t.Errorf("one steady request allocates %d bytes, budget %d", perBytes, maxBytes)
	}
	if perMallocs > maxMallocs {
		t.Errorf("one steady request makes %d mallocs, budget %d", perMallocs, maxMallocs)
	}
}
