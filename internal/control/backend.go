package control

import (
	"fmt"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/metrics"
	"slaplace/internal/res"
	"slaplace/internal/sim"
	"slaplace/internal/vm"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// ClusterBackend abstracts the world a control cycle manages. The
// session (session.go) drives the same monitor → plan → actuate cycle
// over any backend; the simulator is one implementation (SimBackend)
// and the chaos package's fault injector wraps it as another.
type ClusterBackend interface {
	// Snapshot builds the monitoring state at time now; (t0, now] is
	// the elapsed observation window for monitored estimates.
	Snapshot(t0, now float64) *core.State
	// Observe records the backend's measured series for the cycle —
	// what the paper plots as "actual". rec is never nil.
	Observe(rec *metrics.Recorder, st *core.State, now float64)
	// Enact applies the plan's actions. Failures are counted, not
	// returned: actuation may be asynchronous (the simulator defers
	// its placing phase behind the actuation delay).
	Enact(plan *core.Plan)
	// FailedActions reports how many actions have failed so far.
	FailedActions() int
}

// SimBackend adapts the discrete-event simulator — cluster, VM
// manager, workload runtimes — as a ClusterBackend. It owns the
// two-phase actuation ordering: suspensions, instance removals and
// share changes free resources immediately; placements that may need
// that memory are issued after the actuation delay.
type SimBackend struct {
	eng  *sim.Engine
	cl   *cluster.Cluster
	mgr  *vm.Manager
	jobs *batch.Runtime
	web  *trans.Runtime

	// actuationDelay separates the freeing phase from the placing
	// phase; label names the deferred actuation event.
	actuationDelay float64
	label          string

	failedActions int
}

var _ ClusterBackend = (*SimBackend)(nil)

// NewSimBackend wires a simulator backend. web may be nil when the
// scenario has no transactional workload.
func NewSimBackend(eng *sim.Engine, cl *cluster.Cluster, mgr *vm.Manager,
	jobs *batch.Runtime, web *trans.Runtime,
	actuationDelay float64, label string) (*SimBackend, error) {
	if eng == nil || cl == nil || mgr == nil || jobs == nil {
		return nil, fmt.Errorf("control: nil dependency")
	}
	return &SimBackend{
		eng: eng, cl: cl, mgr: mgr, jobs: jobs, web: web,
		actuationDelay: actuationDelay, label: label,
	}, nil
}

// State builds the raw monitoring state at time now, with oracle
// arrival rates (no profiler window applied).
func (b *SimBackend) State(now float64) *core.State {
	st := &core.State{Now: now}
	for _, n := range b.cl.OnlineNodes() {
		st.Nodes = append(st.Nodes, core.NodeInfo{ID: n.ID(), CPU: n.CPU(), Mem: n.Mem()})
	}
	for _, j := range b.jobs.Incomplete() {
		info := core.JobInfo{
			ID:        j.ID(),
			Class:     j.Class().Name,
			State:     j.State(),
			Node:      b.jobs.Node(j.ID()),
			Share:     b.jobs.Share(j.ID()),
			Remaining: j.RemainingAt(now),
			MaxSpeed:  j.Class().MaxSpeed,
			Mem:       j.Class().Mem,
			Goal:      j.Goal(),
			Submitted: j.Submitted(),
			Fn:        j.Class().Fn,
		}
		if v, ok := b.mgr.VM(j.VMID()); ok && v.State() == vm.Migrating {
			info.Migrating = true
		}
		st.Jobs = append(st.Jobs, info)
	}
	if b.web != nil {
		for _, a := range b.web.Apps() {
			cfg := a.Config()
			instances := make(map[cluster.NodeID]res.CPU)
			for _, n := range a.InstanceNodes() {
				instances[n] = a.InstanceShare(n)
			}
			st.Apps = append(st.Apps, core.AppInfo{
				ID:             cfg.ID,
				Lambda:         a.Lambda(now),
				RTGoal:         cfg.RTGoal,
				Model:          cfg.Model,
				Fn:             cfg.Fn,
				InstanceMem:    cfg.InstanceMem,
				MaxPerInstance: cfg.MaxPerInstance,
				MinInstances:   cfg.MinInstances,
				MaxInstances:   cfg.MaxInstances,
				Instances:      instances,
				MeasuredRT:     a.ObservedRT(now),
			})
		}
	}
	return st
}

// Snapshot implements ClusterBackend: the raw state with oracle
// arrival rates replaced by profiler estimates where the application
// is configured for monitoring-based estimation over (t0, now].
func (b *SimBackend) Snapshot(t0, now float64) *core.State {
	st := b.State(now)
	if b.web != nil {
		for i := range st.Apps {
			if a, ok := b.web.App(st.Apps[i].ID); ok {
				st.Apps[i].Lambda = a.MonitoredLambda(t0, now)
			}
		}
	}
	return st
}

// Observe implements ClusterBackend: the measured transactional series
// (what the paper plots as "actual") plus the job-population and
// VM-operation counters.
func (b *SimBackend) Observe(rec *metrics.Recorder, st *core.State, now float64) {
	for i := range st.Apps {
		app := &st.Apps[i]
		id := string(app.ID)
		var u float64
		if a, ok := b.web.App(app.ID); ok {
			u = a.MeasuredUtility(app.MeasuredRT)
			rec.Series("trans/"+id+"/rt").Add(now, app.MeasuredRT)
		}
		rec.Series("trans/"+id+"/utility").Add(now, u)
		rec.Series("trans/"+id+"/lambda").Add(now, app.Lambda)
	}
	stats := b.jobs.Stats()
	rec.Series("jobs/pending").Add(now, float64(stats.Pending))
	rec.Series("jobs/runningCycle").Add(now, float64(stats.Running))
	rec.Series("jobs/suspendedCycle").Add(now, float64(stats.Suspended))
	rec.Series("jobs/completed").Add(now, float64(stats.Completed))
	cnt := b.mgr.Counters()
	rec.Series("ops/migrations").Add(now, float64(cnt.Migrations))
	rec.Series("ops/suspends").Add(now, float64(cnt.Suspends))
}

// Enact implements ClusterBackend with two-phase ordering: actions
// that free memory and share changes at once, placements after the
// actuation delay.
func (b *SimBackend) Enact(plan *core.Plan) {
	var deferred []core.Action
	for _, a := range plan.Actions {
		if a.Frees() || a.Kind == core.SetJobShare || a.Kind == core.SetInstanceShare {
			b.try(b.enact(a))
		} else {
			deferred = append(deferred, a)
		}
	}
	if len(deferred) == 0 {
		return
	}
	enact := func(sim.Time) {
		for _, a := range deferred {
			b.try(b.enact(a))
		}
	}
	if b.actuationDelay == 0 {
		enact(b.eng.Now())
		return
	}
	b.eng.After(b.actuationDelay, "actuate/"+b.label, enact)
}

// enact carries out one action on the simulated world.
func (b *SimBackend) enact(a core.Action) error {
	switch a.Kind {
	case core.StartJob:
		return b.jobs.Start(a.Job, a.Node, a.Share)
	case core.ResumeJob:
		return b.jobs.Resume(a.Job, a.Node, a.Share)
	case core.SuspendJob:
		return b.jobs.Suspend(a.Job)
	case core.MigrateJob:
		if err := b.jobs.Migrate(a.Job, a.Node); err != nil {
			return err
		}
		return b.jobs.SetShare(a.Job, a.Share)
	case core.SetJobShare:
		return b.jobs.SetShare(a.Job, a.Share)
	case core.AddInstance, core.RemoveInstance, core.SetInstanceShare:
		app, err := b.appOf(a.App)
		switch {
		case err != nil:
			return err
		case a.Kind == core.AddInstance:
			return app.AddInstance(a.Node, a.Share)
		case a.Kind == core.RemoveInstance:
			return app.RemoveInstance(a.Node)
		}
		return app.SetInstanceShare(a.Node, a.Share)
	}
	panic(fmt.Sprintf("control: unhandled action %v", a))
}

// FailedActions implements ClusterBackend.
func (b *SimBackend) FailedActions() int { return b.failedActions }

// try counts failed actions; successes pass through silently.
func (b *SimBackend) try(err error) {
	if err == nil {
		return
	}
	b.failedActions++
}

func (b *SimBackend) appOf(id trans.AppID) (*trans.App, error) {
	if b.web == nil {
		return nil, fmt.Errorf("control: no web runtime for app %q", id)
	}
	a, ok := b.web.App(id)
	if !ok {
		return nil, fmt.Errorf("control: unknown app %q", id)
	}
	return a, nil
}

// Sample records fine-grained series between control cycles.
func (b *SimBackend) Sample(rec *metrics.Recorder, now float64) {
	stats := b.jobs.Stats()
	rec.Series("jobs/running").Add(now, float64(stats.Running))
	if b.web != nil {
		for _, a := range b.web.Apps() {
			rt := a.TrueRT(now)
			rec.Series("trans/"+string(a.ID())+"/rt_fine").Add(now, rt)
		}
	}
}

// FailNode injects a node failure: the node goes offline and every
// resident VM is force-evicted (jobs fall back to Suspended with
// checkpoint semantics; web instances are discarded).
func (b *SimBackend) FailNode(id cluster.NodeID) error {
	if !b.cl.SetOnline(id, false) {
		return fmt.Errorf("control: unknown node %q", id)
	}
	b.mgr.ForceEvict(id)
	return nil
}

// RestoreNode brings a failed node back online.
func (b *SimBackend) RestoreNode(id cluster.NodeID) error {
	if !b.cl.SetOnline(id, true) {
		return fmt.Errorf("control: unknown node %q", id)
	}
	return nil
}
