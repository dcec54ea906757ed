package api

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/utility"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// Conversions between the wire schema and the in-process planner
// types. They are lossless for everything the planner reads: a
// CoreState∘FromCoreState round trip reproduces the snapshot bit for
// bit (floats are copied, never reformatted), so plans — and their
// golden digests — are identical whether a state arrived in process
// or over the wire.

// jobStateWire maps batch states to wire strings.
func jobStateWire(s batch.State) (string, error) {
	switch s {
	case batch.Pending:
		return JobPending, nil
	case batch.Running:
		return JobRunning, nil
	case batch.Suspended:
		return JobSuspended, nil
	default:
		return "", fmt.Errorf("api: job state %v has no wire form", s)
	}
}

// jobStateCore maps wire strings to batch states.
func jobStateCore(s string) (batch.State, error) {
	switch s {
	case JobPending:
		return batch.Pending, nil
	case JobRunning:
		return batch.Running, nil
	case JobSuspended:
		return batch.Suspended, nil
	default:
		return 0, fmt.Errorf("api: unknown job state %q", s)
	}
}

// FromModel converts a queueing model to its wire form. Only the
// package models (MG1PS, MM1, MMc) have one; a custom Model
// implementation cannot cross the wire.
func FromModel(m queueing.Model) (Model, error) {
	switch mm := m.(type) {
	case queueing.MG1PS:
		return Model{Type: ModelMG1PS, DemandMHzs: mm.DemandMHzs, CoreSpeedMHz: float64(mm.CoreSpeed)}, nil
	case queueing.MM1:
		return Model{Type: ModelMM1, DemandMHzs: mm.DemandMHzs}, nil
	case queueing.MMc:
		return Model{Type: ModelMMc, DemandMHzs: mm.DemandMHzs, CoreSpeedMHz: float64(mm.CoreSpeed)}, nil
	default:
		return Model{}, fmt.Errorf("api: queueing model %T has no wire form", m)
	}
}

// QueueModel converts a wire model back to a queueing model.
func (m Model) QueueModel() (queueing.Model, error) {
	switch m.Type {
	case ModelMG1PS:
		return queueing.MG1PS{DemandMHzs: m.DemandMHzs, CoreSpeed: res.CPU(m.CoreSpeedMHz)}, nil
	case ModelMM1:
		return queueing.MM1{DemandMHzs: m.DemandMHzs}, nil
	case ModelMMc:
		return queueing.MMc{DemandMHzs: m.DemandMHzs, CoreSpeed: res.CPU(m.CoreSpeedMHz)}, nil
	default:
		return nil, fmt.Errorf("api: unknown model type %q", m.Type)
	}
}

// FromFunction converts a utility function to its wire form. nil maps
// to nil (the default function). Only the package functions (Linear,
// Sigmoid, Piecewise) have a wire form.
func FromFunction(f utility.Function) (*UtilityFn, error) {
	switch fn := f.(type) {
	case nil:
		return nil, nil
	case utility.Linear:
		return &UtilityFn{Type: FnLinear, Floor: fn.Floor}, nil
	case utility.Sigmoid:
		return &UtilityFn{Type: FnSigmoid, K: fn.K}, nil
	case *utility.Piecewise:
		pts := fn.Points()
		wire := make([]Point, len(pts))
		for i, p := range pts {
			wire[i] = Point{P: p.P, U: p.U}
		}
		return &UtilityFn{Type: FnPiecewise, Points: wire}, nil
	default:
		return nil, fmt.Errorf("api: utility function %T has no wire form", f)
	}
}

// Function converts a wire utility function back. A nil receiver
// yields nil (the workload's default).
func (u *UtilityFn) Function() (utility.Function, error) {
	if u == nil {
		return nil, nil
	}
	switch u.Type {
	case FnLinear:
		return utility.Linear{Floor: u.Floor}, nil
	case FnSigmoid:
		return utility.Sigmoid{K: u.K}, nil
	case FnPiecewise:
		pts := make([]utility.Point, len(u.Points))
		for i, p := range u.Points {
			pts[i] = utility.Point{P: p.P, U: p.U}
		}
		return utility.NewPiecewise(pts)
	default:
		return nil, fmt.Errorf("api: unknown utility type %q", u.Type)
	}
}

// FromCoreState converts a planner snapshot to its wire form. It
// fails when a workload carries a model or utility function without a
// wire encoding.
func FromCoreState(st *core.State) (*Snapshot, error) {
	snap := &Snapshot{SchemaVersion: SchemaVersion, Now: st.Now}
	snap.Nodes = make([]Node, len(st.Nodes))
	for i, n := range st.Nodes {
		snap.Nodes[i] = Node{ID: string(n.ID), CPUMHz: float64(n.CPU), MemMB: int64(n.Mem)}
	}
	if len(st.Jobs) > 0 {
		snap.Jobs = make([]Job, len(st.Jobs))
	}
	for i := range st.Jobs {
		j := &st.Jobs[i]
		state, err := jobStateWire(j.State)
		if err != nil {
			return nil, err
		}
		fn, err := FromFunction(j.Fn)
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", j.ID, err)
		}
		snap.Jobs[i] = Job{
			ID:            string(j.ID),
			Class:         j.Class,
			State:         state,
			Node:          string(j.Node),
			ShareMHz:      float64(j.Share),
			Migrating:     j.Migrating,
			RemainingMHzs: float64(j.Remaining),
			MaxSpeedMHz:   float64(j.MaxSpeed),
			MemMB:         int64(j.Mem),
			GoalSec:       j.Goal,
			SubmittedSec:  j.Submitted,
			Utility:       fn,
		}
	}
	if len(st.Apps) > 0 {
		snap.Apps = make([]App, len(st.Apps))
	}
	for i := range st.Apps {
		a := &st.Apps[i]
		model, err := FromModel(a.Model)
		if err != nil {
			return nil, fmt.Errorf("app %q: %w", a.ID, err)
		}
		fn, err := FromFunction(a.Fn)
		if err != nil {
			return nil, fmt.Errorf("app %q: %w", a.ID, err)
		}
		snap.Apps[i] = App{
			ID:                string(a.ID),
			Lambda:            a.Lambda,
			RTGoalSec:         a.RTGoal,
			Model:             model,
			Utility:           fn,
			InstanceMemMB:     int64(a.InstanceMem),
			MaxPerInstanceMHz: float64(a.MaxPerInstance),
			MinInstances:      a.MinInstances,
			MaxInstances:      a.MaxInstances,
			Instances:         instancesWire(a.Instances),
			MeasuredRTSec:     Float(a.MeasuredRT),
		}
	}
	return snap, nil
}

// instancesWire renders an instance map as a node-sorted wire list.
func instancesWire(m map[cluster.NodeID]res.CPU) []Instance {
	if len(m) == 0 {
		return nil
	}
	out := make([]Instance, 0, len(m))
	for n, s := range m {
		out = append(out, Instance{Node: string(n), ShareMHz: float64(s)})
	}
	slices.SortFunc(out, func(a, b Instance) int { return cmp.Compare(a.Node, b.Node) })
	return out
}

// CoreState converts a wire snapshot into the planner's state form.
// Call Validate first (DecodeSnapshot does); CoreState only rejects
// what validation cannot see without conversion.
func (s *Snapshot) CoreState() (*core.State, error) {
	st := &core.State{Now: s.Now}
	st.Nodes = make([]core.NodeInfo, len(s.Nodes))
	for i, n := range s.Nodes {
		st.Nodes[i] = core.NodeInfo{ID: cluster.NodeID(n.ID), CPU: res.CPU(n.CPUMHz), Mem: res.Memory(n.MemMB)}
	}
	if len(s.Jobs) > 0 {
		st.Jobs = make([]core.JobInfo, len(s.Jobs))
	}
	for i := range s.Jobs {
		info, err := s.Jobs[i].coreInfo()
		if err != nil {
			return nil, err
		}
		st.Jobs[i] = info
	}
	if len(s.Apps) > 0 {
		st.Apps = make([]core.AppInfo, len(s.Apps))
	}
	for i := range s.Apps {
		info, err := s.Apps[i].coreInfo()
		if err != nil {
			return nil, err
		}
		st.Apps[i] = info
	}
	return st, nil
}

// coreInfo converts one wire job to the planner's form.
func (j *Job) coreInfo() (core.JobInfo, error) {
	state, err := jobStateCore(j.State)
	if err != nil {
		return core.JobInfo{}, err
	}
	fn, err := j.Utility.Function()
	if err != nil {
		return core.JobInfo{}, fmt.Errorf("job %q: %w", j.ID, err)
	}
	return core.JobInfo{
		ID:        batch.JobID(j.ID),
		Class:     j.Class,
		State:     state,
		Node:      cluster.NodeID(j.Node),
		Share:     res.CPU(j.ShareMHz),
		Migrating: j.Migrating,
		Remaining: res.Work(j.RemainingMHzs),
		MaxSpeed:  res.CPU(j.MaxSpeedMHz),
		Mem:       res.Memory(j.MemMB),
		Goal:      j.GoalSec,
		Submitted: j.SubmittedSec,
		Fn:        fn,
	}, nil
}

// coreInfo converts one wire application to the planner's form.
func (a *App) coreInfo() (core.AppInfo, error) {
	model, err := a.Model.QueueModel()
	if err != nil {
		return core.AppInfo{}, fmt.Errorf("app %q: %w", a.ID, err)
	}
	fn, err := a.Utility.Function()
	if err != nil {
		return core.AppInfo{}, fmt.Errorf("app %q: %w", a.ID, err)
	}
	inst := make(map[cluster.NodeID]res.CPU, len(a.Instances))
	for _, in := range a.Instances {
		inst[cluster.NodeID(in.Node)] = res.CPU(in.ShareMHz)
	}
	return core.AppInfo{
		ID:             trans.AppID(a.ID),
		Lambda:         a.Lambda,
		RTGoal:         a.RTGoalSec,
		Model:          model,
		Fn:             fn,
		InstanceMem:    res.Memory(a.InstanceMemMB),
		MaxPerInstance: res.CPU(a.MaxPerInstanceMHz),
		MinInstances:   a.MinInstances,
		MaxInstances:   a.MaxInstances,
		Instances:      inst,
		MeasuredRT:     float64(a.MeasuredRTSec),
	}, nil
}

// FromCoreAction converts one planner action to its wire form: the
// kind is the action's position in actionTypes.
func FromCoreAction(a core.Action) (Action, error) {
	if a.Kind < 1 || int(a.Kind) > len(actionTypes) {
		return Action{}, fmt.Errorf("api: action kind %d has no wire form", a.Kind)
	}
	return Action{Type: actionTypes[a.Kind-1], Job: string(a.Job), App: string(a.App),
		Node: string(a.Node), ShareMHz: float64(a.Share)}, nil
}

// CoreAction converts a wire action back to a planner action.
func (a Action) CoreAction() (core.Action, error) {
	k := slices.Index(actionTypes, a.Type) + 1
	if k == 0 {
		return core.Action{}, fmt.Errorf("api: unknown action type %q", a.Type)
	}
	return core.Action{Kind: core.ActionKind(k), Job: batch.JobID(a.Job), App: trans.AppID(a.App),
		Node: cluster.NodeID(a.Node), Share: res.CPU(a.ShareMHz)}, nil
}

// FromCorePlan converts a planner output to its wire form: the action
// list in emission order, the resulting placement (jobs and apps each
// sorted by ID), and the diagnostics. st must be the snapshot the
// plan was produced from.
func FromCorePlan(st *core.State, p *core.Plan) (*Plan, error) {
	wire := &Plan{SchemaVersion: SchemaVersion}
	if len(p.Actions) > 0 {
		wire.Actions = make([]Action, len(p.Actions))
		for i, act := range p.Actions {
			wa, err := FromCoreAction(act)
			if err != nil {
				return nil, err
			}
			wire.Actions[i] = wa
		}
	}

	jobs, err := jobPlacements(st, p)
	if err != nil {
		return nil, err
	}
	wire.Placement.Jobs = jobs
	apps := p.AppAssignments(st)
	if len(apps) > 0 {
		wire.Placement.Apps = make([]AppPlacement, 0, len(apps))
		for id, inst := range apps {
			wire.Placement.Apps = append(wire.Placement.Apps, AppPlacement{
				ID:        string(id),
				Instances: instancesWire(inst),
			})
		}
		slices.SortFunc(wire.Placement.Apps, func(a, b AppPlacement) int { return cmp.Compare(a.ID, b.ID) })
	}

	wire.Diagnostics = Diagnostics{
		EqualizedUtility:       Float(p.EqualizedUtility),
		HypotheticalJobUtility: Float(p.HypotheticalJobUtility),
		ClassHypoUtility:       wireFloats(p.ClassHypoUtility),
		JobDemandMHz:           Float(p.JobDemand),
		JobTargetMHz:           Float(p.JobTarget),
		AppPrediction:          wireFloats(p.AppPrediction),
		AppDemandMHz:           wireFloats(p.AppDemand),
		AppTargetMHz:           wireFloats(p.AppTarget),
	}
	return wire, nil
}

// jobPlacements renders core.Plan.JobAssignments — every snapshot
// job's post-plan assignment — straight into the wire's ID-sorted list.
// A monitoring loop's snapshot lists jobs in strictly increasing ID
// order, and then nothing is hashed or sorted: the list is filled in
// one pass over st.Jobs and each action finds its job by binary search.
// Any other input (unsorted or duplicate IDs, an action naming a job
// the snapshot lacks) gets the map's semantics through an ID index
// built on demand: a later duplicate overwrites the earlier one, an
// absent job is appended, and the list is sorted at the end.
func jobPlacements(st *core.State, p *core.Plan) ([]JobPlacement, error) {
	out := make([]JobPlacement, len(st.Jobs))
	sorted := true
	for i := range st.Jobs {
		j := &st.Jobs[i]
		// An unknown state is reported only if no action overrides it.
		state, _ := jobStateWire(j.State)
		out[i] = JobPlacement{ID: string(j.ID), State: state}
		if j.State == batch.Running {
			out[i].Node, out[i].ShareMHz = string(j.Node), float64(j.Share)
		}
		sorted = sorted && (i == 0 || out[i-1].ID < out[i].ID)
	}
	var index map[string]int
	if !sorted {
		index = make(map[string]int, len(out))
		n := 0
		for _, jp := range out {
			if at, dup := index[jp.ID]; dup {
				out[at] = jp
				continue
			}
			index[jp.ID] = n
			out[n] = jp
			n++
		}
		out = out[:n]
	}
	// at returns the job's entry, appending a pending one when the
	// snapshot has no such job.
	at := func(id batch.JobID) *JobPlacement {
		if index == nil {
			i := sort.Search(len(out), func(i int) bool { return out[i].ID >= string(id) })
			if i < len(out) && out[i].ID == string(id) {
				return &out[i]
			}
			index = make(map[string]int, len(out)+1)
			for i := range out {
				index[out[i].ID] = i
			}
		}
		i, ok := index[string(id)]
		if !ok {
			i, sorted = len(out), false
			index[string(id)] = i
			out = append(out, JobPlacement{ID: string(id), State: JobPending})
		}
		return &out[i]
	}
	for _, a := range p.Actions {
		switch a.Kind {
		case core.StartJob, core.ResumeJob, core.MigrateJob:
			*at(a.Job) = JobPlacement{ID: string(a.Job), State: JobRunning, Node: string(a.Node), ShareMHz: float64(a.Share)}
		case core.SuspendJob:
			*at(a.Job) = JobPlacement{ID: string(a.Job), State: JobSuspended}
		case core.SetJobShare:
			at(a.Job).ShareMHz = float64(a.Share)
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	if !sorted {
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	}
	for i := range out {
		if out[i].State == "" {
			return nil, fmt.Errorf("api: job %q is in a state with no wire form", out[i].ID)
		}
	}
	return out, nil
}

// CorePlan reconstructs the planner's plan form from the wire: actions
// in emission order and diagnostics bit for bit. It is the inverse of
// FromCorePlan for everything core.Plan.Digest reads, so a wire-replayed
// plan sequence can be digest-checked against in-process golden runs
// (the placement section is derived state and has no core field).
func (p *Plan) CorePlan() (*core.Plan, error) {
	cp := &core.Plan{
		HypotheticalJobUtility: float64(p.Diagnostics.HypotheticalJobUtility),
		EqualizedUtility:       float64(p.Diagnostics.EqualizedUtility),
		JobDemand:              res.CPU(float64(p.Diagnostics.JobDemandMHz)),
		JobTarget:              res.CPU(float64(p.Diagnostics.JobTargetMHz)),
	}
	if len(p.Actions) > 0 {
		cp.Actions = make([]core.Action, len(p.Actions))
		for i, wa := range p.Actions {
			act, err := wa.CoreAction()
			if err != nil {
				return nil, err
			}
			cp.Actions[i] = act
		}
	}
	d := &p.Diagnostics
	cp.ClassHypoUtility = coreFloats[string, float64](d.ClassHypoUtility)
	cp.AppPrediction = coreFloats[trans.AppID, float64](d.AppPrediction)
	cp.AppDemand = coreFloats[trans.AppID, res.CPU](d.AppDemandMHz)
	cp.AppTarget = coreFloats[trans.AppID, res.CPU](d.AppTargetMHz)
	return cp, nil
}

// wireFloats renders a planner diagnostics map on the wire; an empty
// map is omitted.
func wireFloats[K ~string, V ~float64](m map[K]V) map[string]Float {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]Float, len(m))
	for k, v := range m {
		out[string(k)] = Float(v)
	}
	return out
}

// coreFloats is the inverse of wireFloats, bit for bit.
func coreFloats[K ~string, V ~float64](m map[string]Float) map[K]V {
	if len(m) == 0 {
		return nil
	}
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[K(k)] = V(v)
	}
	return out
}

// ApplyTo patches a retained snapshot state with this delta and
// returns the patched state as a fresh value (the base is not
// mutated; unchanged entries are shared). Job and app order is
// preserved for upserts-in-place; new entries append in delta order —
// matching how a monitoring loop's snapshot would have evolved.
func (d *SnapshotDelta) ApplyTo(base *core.State) (*core.State, error) {
	if !finite(d.Now) {
		return nil, fmt.Errorf("api: delta non-finite now %v", d.Now)
	}
	st := &core.State{Now: d.Now}
	if d.Nodes != nil {
		// A delta may replace the node list, but only with one that a
		// full snapshot could carry.
		if len(d.Nodes) == 0 {
			return nil, fmt.Errorf("api: delta has no nodes")
		}
		st.Nodes = make([]core.NodeInfo, len(d.Nodes))
		seen := make(map[string]bool, len(d.Nodes))
		for i := range d.Nodes {
			n := &d.Nodes[i]
			if seen[n.ID] && n.ID != "" {
				return nil, fmt.Errorf("api: delta duplicate node %q", n.ID)
			}
			seen[n.ID] = true
			if err := n.validate(i); err != nil {
				return nil, err
			}
			st.Nodes[i] = core.NodeInfo{ID: cluster.NodeID(n.ID), CPU: res.CPU(n.CPUMHz), Mem: res.Memory(n.MemMB)}
		}
	} else {
		st.Nodes = base.Nodes // States are never changed once built
	}

	var err error
	st.Jobs, err = patch("job", base.Jobs, d.UpsertJobs, d.RemoveJobs,
		func(j *core.JobInfo) string { return string(j.ID) }, func(j *Job) string { return j.ID }, wireJobInfo)
	if err != nil {
		return nil, err
	}
	st.Apps, err = patch("app", base.Apps, d.UpsertApps, d.RemoveApps,
		func(a *core.AppInfo) string { return string(a.ID) }, func(a *App) string { return a.ID }, wireAppInfo)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// patch applies one kind's upserts and removals to the base list, as
// ApplyTo describes: a removed entry drops out, an upserted one is
// replaced where it stands, and upserts the base lacks append in delta
// order. convert validates and converts one upsert.
func patch[C, W any](kind string, base []C, upserts []W, removes []string,
	baseID func(*C) string, upsertID func(*W) string, convert func(*W) (C, error)) ([]C, error) {
	removed := make(map[string]bool, len(removes))
	for _, id := range removes {
		removed[id] = true
	}
	index := make(map[string]int, len(upserts))
	for i := range upserts {
		id := upsertID(&upserts[i])
		if _, dup := index[id]; dup {
			return nil, fmt.Errorf("api: delta upserts %s %q twice", kind, id)
		}
		index[id] = i
	}
	out := make([]C, 0, len(base)+len(upserts))
	placed := make([]bool, len(upserts))
	for i := range base {
		id := baseID(&base[i])
		if removed[id] {
			continue
		}
		ui, ok := index[id]
		if !ok {
			out = append(out, base[i])
			continue
		}
		info, err := convert(&upserts[ui])
		if err != nil {
			return nil, err
		}
		out = append(out, info)
		placed[ui] = true
	}
	for i := range upserts {
		if placed[i] || removed[upsertID(&upserts[i])] {
			continue
		}
		info, err := convert(&upserts[i])
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, nil
}

// wireJobInfo validates and converts one upserted job.
func wireJobInfo(j *Job) (core.JobInfo, error) {
	if err := j.validate(0); err != nil {
		return core.JobInfo{}, err
	}
	return j.coreInfo()
}

// wireAppInfo validates and converts one upserted application.
func wireAppInfo(a *App) (core.AppInfo, error) {
	if err := a.validate(0); err != nil {
		return core.AppInfo{}, err
	}
	return a.coreInfo()
}
