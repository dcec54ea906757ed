package main

import (
	"fmt"
	"math"
	"sort"

	"slaplace/api"
	"slaplace/internal/rng"
)

// shape describes the cluster a twin simulates. The two regimes differ
// in what a control cycle changes, which is what decides the planner's
// re-plan tier:
//
//   - churn: the paper's regime. Memory binds (three or four jobs fill
//     a node), jobs finish every cycle and queued ones can take their
//     place, so each cycle has jobs to place — the full tier.
//   - saturated (churn false): every node is full, the pending backlog
//     fits neither free memory nor the room one eviction would make,
//     and running jobs are days long — only progress and demand drift
//     change, so every cycle can carry the placement over.
type shape struct {
	nodes, jobs int
	// period is the control cycle in seconds: how far Now advances and
	// how much work a running job burns between two requests.
	period float64
	churn  bool
}

// Node shape and web calibration follow the paper's testbed: 4-core
// 4500 MHz nodes with 16 GB, 1 GB web instances, 1350 MHz·s requests.
const (
	nodeCPUMHz    = 18000
	nodeMemMB     = 16000
	coreMHz       = 4500
	webDemandMHzs = 1350
	webInstanceMB = 1000
	// refNodes is the node count the per-app arrival rates below are
	// calibrated for; other sizes scale them proportionally.
	refNodes = 500
)

// webApps are the four web applications of every twin: distinct
// response-time goals, arrival rates that together ask for roughly a
// quarter of a reference cluster's CPU.
var webApps = []struct {
	id     string
	rtGoal float64
	lambda float64
}{
	{"web-a", 1, 250},
	{"web-b", 2, 400},
	{"web-c", 3, 550},
	{"web-d", 5, 300},
}

// twin is a seeded stand-in for the cluster a manager would monitor: it
// holds the snapshot the next request reports, enacts each reply the
// way an executor would, and moves the world forward one control cycle
// — so the traffic the daemon sees is produced by its own decisions and
// the tier mix is an outcome, not an input.
type twin struct {
	id    string
	shape shape
	snap  api.Snapshot
	// jobAt indexes snap.Jobs by ID; dirty marks the jobs the next delta
	// must upsert and removed the ones it must drop.
	jobAt   map[string]int
	dirty   []bool
	removed []string
	// cycle is the session's cycle count as of the last reply: the next
	// delta's BaseCycle, and one less than the next reply's Cycle.
	cycle int

	arrivals *rng.Stream
	demand   *rng.Stream
	nextJob  int
	lambda0  []float64

	// finished and admitted count job turnover since the twin started.
	finished, admitted int
}

// newTwin builds the initial snapshot of a cluster of the given shape.
func newTwin(id string, sh shape, seed uint64) *twin {
	src := rng.NewSource(seed)
	t := &twin{
		id:       id,
		shape:    sh,
		jobAt:    make(map[string]int, sh.jobs),
		arrivals: src.Stream("twin/" + id + "/arrivals"),
		demand:   src.Stream("twin/" + id + "/demand"),
	}
	t.snap = api.Snapshot{SchemaVersion: api.SchemaVersion, Now: sh.period}
	for i := 0; i < sh.nodes; i++ {
		t.snap.Nodes = append(t.snap.Nodes, api.Node{
			ID: fmt.Sprintf("n%04d", i), CPUMHz: nodeCPUMHz, MemMB: nodeMemMB,
		})
	}
	scale := float64(sh.nodes) / refNodes
	for _, w := range webApps {
		app := api.App{
			ID:                w.id,
			Lambda:            w.lambda * scale * t.demand.Uniform(0.9, 1.1),
			RTGoalSec:         w.rtGoal,
			Model:             api.Model{Type: api.ModelMG1PS, DemandMHzs: webDemandMHzs, CoreSpeedMHz: coreMHz},
			InstanceMemMB:     webInstanceMB,
			MaxPerInstanceMHz: nodeCPUMHz,
		}
		if !sh.churn {
			// A clustered tier spanning the farm: one single-core instance
			// per node, so the instance count never moves with demand and
			// only the shares are re-priced.
			app.MinInstances = sh.nodes
			app.MaxPerInstanceMHz = coreMHz
			for _, n := range t.snap.Nodes {
				app.Instances = append(app.Instances, api.Instance{Node: n.ID, ShareMHz: 150})
			}
		}
		t.lambda0 = append(t.lambda0, app.Lambda)
		t.snap.Apps = append(t.snap.Apps, app)
	}
	for i := 0; i < sh.jobs; i++ {
		job := t.newJob()
		if sh.churn {
			// Start mid-life, as a population in equilibrium would be.
			job.RemainingMHzs *= t.arrivals.Uniform(0.05, 1)
		} else if i < 2*sh.nodes {
			job.State = api.JobRunning
			job.Node = t.snap.Nodes[i%sh.nodes].ID
			job.ShareMHz = coreMHz
		}
		t.addJob(job)
	}
	return t
}

// newJob draws one pending job submitted now.
func (t *twin) newJob() api.Job {
	job := api.Job{
		ID:           fmt.Sprintf("j%07d", t.nextJob),
		State:        api.JobPending,
		MaxSpeedMHz:  coreMHz,
		SubmittedSec: t.snap.Now,
	}
	t.nextJob++
	var idealSec float64
	switch {
	case t.shape.churn:
		// 4 GB: four jobs fill a node, or three beside all four apps'
		// 1 GB instances, and the rest queue. (The paper's 5 GB job leaves
		// room for one instance only, and the planner overbooks a node's
		// memory when two apps want that last gigabyte — see README.md.)
		// 8–40 cycles long at full speed, so a few percent of the running
		// set finishes every cycle.
		job.MemMB = 4000
		job.RemainingMHzs = t.arrivals.Uniform(8, 40) * t.shape.period * coreMHz
		idealSec = job.RemainingMHzs / coreMHz
		job.GoalSec = t.snap.Now + t.arrivals.Uniform(3, 8)*idealSec
	case t.nextJob <= 2*t.shape.nodes:
		// The resident set: two 5 GB multi-day jobs per node beside four
		// 1 GB web instances leave 2 GB free.
		job.MemMB = 5000
		job.RemainingMHzs = coreMHz * t.arrivals.Uniform(2, 5) * 86400
		idealSec = job.RemainingMHzs / coreMHz
		job.GoalSec = t.snap.Now + 3*idealSec
	default:
		// The backlog: 12 GB fits neither the 2 GB free nor the 7 GB one
		// eviction would make.
		job.MemMB = 12000
		job.RemainingMHzs = coreMHz * t.arrivals.Uniform(0.2, 2) * 86400
		idealSec = job.RemainingMHzs / coreMHz
		job.GoalSec = t.snap.Now + 10*86400 + 3*idealSec
	}
	return job
}

func (t *twin) addJob(job api.Job) {
	t.jobAt[job.ID] = len(t.snap.Jobs)
	t.snap.Jobs = append(t.snap.Jobs, job)
	t.dirty = append(t.dirty, true)
}

// fullRequest reports the whole snapshot. The request aliases the
// twin's state: encode it before the next enact or advance.
func (t *twin) fullRequest(reply string) *api.PlanRequest {
	t.clearDirty()
	return &api.PlanRequest{
		SchemaVersion: api.SchemaVersion, ClusterID: t.id, Snapshot: &t.snap, Reply: reply,
	}
}

// deltaRequest reports only what changed since the previous request:
// the jobs whose state, share or remaining work moved, the jobs that
// finished, and every app (its demand drifts each cycle).
func (t *twin) deltaRequest(reply string) *api.PlanRequest {
	d := &api.SnapshotDelta{BaseCycle: t.cycle, Now: t.snap.Now, RemoveJobs: t.removed, UpsertApps: t.snap.Apps}
	for i, dirty := range t.dirty {
		if dirty {
			d.UpsertJobs = append(d.UpsertJobs, t.snap.Jobs[i])
		}
	}
	t.clearDirty()
	return &api.PlanRequest{
		SchemaVersion: api.SchemaVersion, ClusterID: t.id, Delta: d, Reply: reply,
	}
}

func (t *twin) clearDirty() {
	for i := range t.dirty {
		t.dirty[i] = false
	}
	t.removed = nil
}

// enact applies a reply the way the cluster's executor would: the full
// placement when the reply carries the plan, the typed delta actions
// otherwise.
func (t *twin) enact(resp *api.PlanResponse) error {
	t.cycle = resp.Cycle
	if resp.Plan != nil {
		for _, p := range resp.Plan.Placement.Jobs {
			if err := t.placeJob(p.ID, p.State, p.Node, p.ShareMHz); err != nil {
				return err
			}
		}
		for _, p := range resp.Plan.Placement.Apps {
			app := t.app(p.ID)
			if app == nil {
				return fmt.Errorf("twin %s: plan places unknown app %q", t.id, p.ID)
			}
			app.Instances = append(app.Instances[:0], p.Instances...)
		}
		return nil
	}
	for _, act := range resp.Delta {
		if err := t.enactAction(act); err != nil {
			return err
		}
	}
	return nil
}

func (t *twin) enactAction(act api.Action) error {
	switch act.Type {
	case api.ActionStartJob, api.ActionResumeJob, api.ActionMigrateJob:
		return t.placeJob(act.Job, api.JobRunning, act.Node, act.ShareMHz)
	case api.ActionSuspendJob:
		return t.placeJob(act.Job, api.JobSuspended, "", 0)
	case api.ActionSetJobShare:
		i, ok := t.jobAt[act.Job]
		if !ok {
			return fmt.Errorf("twin %s: action on unknown job %q", t.id, act.Job)
		}
		return t.placeJob(act.Job, api.JobRunning, t.snap.Jobs[i].Node, act.ShareMHz)
	}
	app := t.app(act.App)
	if app == nil {
		return fmt.Errorf("twin %s: action %q on unknown app %q", t.id, act.Type, act.App)
	}
	// Instances stay node-sorted, the order the wire placement uses.
	at := sort.Search(len(app.Instances), func(i int) bool { return app.Instances[i].Node >= act.Node })
	present := at < len(app.Instances) && app.Instances[at].Node == act.Node
	switch {
	case act.Type == api.ActionAddInstance && !present:
		app.Instances = append(app.Instances, api.Instance{})
		copy(app.Instances[at+1:], app.Instances[at:])
		app.Instances[at] = api.Instance{Node: act.Node, ShareMHz: act.ShareMHz}
	case act.Type == api.ActionSetInstanceShare && present:
		app.Instances[at].ShareMHz = act.ShareMHz
	case act.Type == api.ActionRemoveInstance && present:
		app.Instances = append(app.Instances[:at], app.Instances[at+1:]...)
	default:
		return fmt.Errorf("twin %s: action %q does not fit app %q on node %q", t.id, act.Type, act.App, act.Node)
	}
	return nil
}

func (t *twin) placeJob(id, state, node string, share float64) error {
	i, ok := t.jobAt[id]
	if !ok {
		return fmt.Errorf("twin %s: plan places unknown job %q", t.id, id)
	}
	job := &t.snap.Jobs[i]
	if job.State != state || job.Node != node || job.ShareMHz != share {
		job.State, job.Node, job.ShareMHz = state, node, share
		t.dirty[i] = true
	}
	return nil
}

func (t *twin) app(id string) *api.App {
	for i := range t.snap.Apps {
		if t.snap.Apps[i].ID == id {
			return &t.snap.Apps[i]
		}
	}
	return nil
}

// advance moves the world one control cycle forward: running jobs burn
// share × period of work, finished jobs leave and as many new ones are
// submitted (a closed population), and each app's arrival rate takes
// one mean-reverting random step.
func (t *twin) advance() {
	t.snap.Now += t.shape.period
	kept := 0
	for i := range t.snap.Jobs {
		job := t.snap.Jobs[i]
		dirty := t.dirty[i]
		if job.State == api.JobRunning && job.ShareMHz > 0 {
			job.RemainingMHzs -= job.ShareMHz * t.shape.period
			dirty = true
			if job.RemainingMHzs <= 0 {
				t.removed = append(t.removed, job.ID)
				delete(t.jobAt, job.ID)
				t.finished++
				continue
			}
		}
		t.snap.Jobs[kept], t.dirty[kept] = job, dirty
		t.jobAt[job.ID] = kept
		kept++
	}
	t.snap.Jobs, t.dirty = t.snap.Jobs[:kept], t.dirty[:kept]
	for len(t.snap.Jobs) < t.shape.jobs {
		t.addJob(t.newJob())
		t.admitted++
	}
	for i := range t.snap.Apps {
		app := &t.snap.Apps[i]
		mean := t.lambda0[i]
		next := app.Lambda + 0.2*(mean-app.Lambda) + 0.05*mean*t.demand.Normal(0, 1)
		app.Lambda = math.Max(0.5*mean, math.Min(1.5*mean, next))
	}
}

// running counts the jobs currently placed.
func (t *twin) running() int {
	n := 0
	for i := range t.snap.Jobs {
		if t.snap.Jobs[i].State == api.JobRunning {
			n++
		}
	}
	return n
}
