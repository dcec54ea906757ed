package serve

import (
	"bytes"
	"fmt"
	"io"
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
		demand: rng.NewSource(1).Stream("demand"),
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

// TestIdleSessionFootprintBudget pins what an idle session keeps on
// the heap once it has planned: its snapshot, its last plan, its
// controller's ledgers and previous-cycle memo — but no plan scratch,
// which belongs to the plans in flight and is shared by every session.
// 200 sessions of one 50-node, 300-job cluster (the middle tier of the
// bench's tenants fleet) each plan once; after a GC the heap they
// retain, per session, must stay under the budget.
func TestIdleSessionFootprintBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the daemon's")
	}
	const sessions = 200
	// Measured 230 KB on the change that made plan scratch shared (the
	// per-session arena before it: 350 KB), and 168.5 KB since the
	// replay memo reads the session's snapshot instead of a copy of it.
	const maxPerSession = 200_000
	handler := New(Options{}).Handler()
	cluster := newSteadyCluster(50, 300)
	post := func(id string) {
		var buf bytes.Buffer
		req := &api.PlanRequest{ClusterID: id, Snapshot: &cluster.snap}
		if err := api.EncodePlanRequestBinary(&buf, req); err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/plan", &buf)
		r.Header.Set("Content-Type", api.ContentTypeBinary)
		r.Header.Set("Accept", api.ContentTypeBinary)
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("POST /v1/plan %s: %d: %s", id, w.Code, w.Body.String())
		}
	}
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	// One warm-up session first, so what the process holds once for
	// all sessions (the plan scratch, lazily built tables) is in the
	// baseline.
	post("warm-up")
	before := heapInuse()
	for i := 0; i < sessions; i++ {
		post(fmt.Sprintf("t%03d", i))
	}
	after := heapInuse()
	runtime.KeepAlive(handler)
	per := int64(after-before) / sessions
	t.Logf("%d idle sessions retain %.1f KB each (budget %.1f KB)", sessions, float64(per)/1e3, float64(maxPerSession)/1e3)
	if per > maxPerSession {
		t.Errorf("an idle session retains %d bytes of heap, budget %d", per, maxPerSession)
	}
}

// TestTenantsRequestAllocationBudget pins what one request of a small
// consolidated tenant may allocate: a full 10-node, 30-job snapshot
// in, a full plan out, to a session planning the tenant's drifting
// demand — once as JSON, as most such tenants speak, and once in the
// binary codec. JSON goes through the same per-type walks as binary,
// not reflection: before it did, a JSON request of this shape cost
// 92.7 KB in 447 mallocs, binary 44.4 KB in 305; since, 38.1 KB in 267
// and 38.9 KB in 272.
func TestTenantsRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the daemon's")
	}
	for _, row := range []struct {
		name                 string
		contentType          string
		maxBytes, maxMallocs uint64
		encode               func(io.Writer, *api.PlanRequest) error
		decode               func(io.Reader) (*api.PlanResponse, error)
	}{
		{"json", api.ContentTypeJSON, 85_000, 420, api.EncodePlanRequest, api.DecodePlanResponse},
		{"binary", api.ContentTypeBinary, 50_000, 340, api.EncodePlanRequestBinary, api.DecodePlanResponseBinary},
	} {
		t.Run(row.name, func(t *testing.T) {
			handler := New(Options{}).Handler()
			cluster := newSteadyCluster(10, 30)
			post := func() (resp *api.PlanResponse, bytesAllocated, mallocs uint64) {
				var body bytes.Buffer
				if err := row.encode(&body, &api.PlanRequest{ClusterID: "tenant", Snapshot: &cluster.snap}); err != nil {
					t.Fatal(err)
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/plan", &body)
				req.Header.Set("Content-Type", row.contentType)
				req.Header.Set("Accept", row.contentType)
				w := httptest.NewRecorder()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				handler.ServeHTTP(w, req)
				runtime.ReadMemStats(&after)
				if w.Code != http.StatusOK {
					t.Fatalf("POST /v1/plan: %d: %s", w.Code, w.Body.String())
				}
				resp, err := row.decode(w.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
			}
			const warmup, measured = 5, 20
			var sumBytes, sumMallocs uint64
			for i := 0; i < warmup+measured; i++ {
				resp, b, m := post()
				if i >= warmup {
					sumBytes += b
					sumMallocs += m
				}
				cluster.enact(t, resp)
			}
			perBytes, perMallocs := sumBytes/measured, sumMallocs/measured
			t.Logf("%.1f KB and %d mallocs per request (budget %.1f KB, %d)",
				float64(perBytes)/1e3, perMallocs, float64(row.maxBytes)/1e3, row.maxMallocs)
			if perBytes > row.maxBytes {
				t.Errorf("one tenant request allocates %d bytes, budget %d", perBytes, row.maxBytes)
			}
			if perMallocs > row.maxMallocs {
				t.Errorf("one tenant request makes %d mallocs, budget %d", perMallocs, row.maxMallocs)
			}
		})
	}
}
