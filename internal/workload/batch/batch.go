// Package batch models the paper's long-running workload: jobs with a
// total computational work requirement, a speed cap (one processor in
// the paper's evaluation), a rigid memory footprint, and a completion
// time goal. Jobs run inside VMs; the runtime here integrates their
// progress from the VM scheduler's effective rates — a fluid execution
// model with exact, analytically scheduled completion events (no
// time-stepping error).
//
// The runtime is mechanism, not policy: it starts, suspends, resumes,
// migrates and re-shares jobs only when the placement controller says
// so. Its own responsibilities are bookkeeping (progress, states,
// completion records) and telling the engine exactly when a running job
// will finish under current rates.
package batch

import (
	"fmt"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/sim"
	"slaplace/internal/utility"
	"slaplace/internal/vm"
)

// JobID identifies a job.
type JobID string

// State is a job lifecycle state (distinct from the VM states beneath:
// a job is Running from the moment it is placed, even while its VM
// boots, because that is how the controller views its commitment).
type State int

// Job states.
const (
	// Pending: submitted, never yet placed.
	Pending State = iota
	// Running: placed on a node (VM may be provisioning/booting).
	Running
	// Suspended: checkpointed to disk, no node, progress retained.
	Suspended
	// Completed: all work done.
	Completed
	// Canceled: withdrawn before completion.
	Canceled
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Suspended:
		return "suspended"
	case Completed:
		return "completed"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Class describes a family of jobs sharing shape and SLA.
type Class struct {
	// Name identifies the class ("batch", "gold", "silver"...).
	Name string
	// Work is the total computation per job in MHz·seconds.
	Work res.Work
	// MaxSpeed caps the useful CPU of one job (paper: one processor).
	MaxSpeed res.CPU
	// Mem is the job VM's memory footprint.
	Mem res.Memory
	// GoalStretch sets the completion goal to
	// submit + GoalStretch × (Work/MaxSpeed). Must be >= 1.
	GoalStretch float64
	// Fn maps relative performance to utility; nil means the default.
	Fn utility.Function
}

// Validate reports configuration errors in the class.
func (c Class) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("batch: class with empty name")
	}
	if c.Work <= 0 {
		return fmt.Errorf("batch: class %q non-positive work %v", c.Name, c.Work)
	}
	if c.MaxSpeed <= 0 {
		return fmt.Errorf("batch: class %q non-positive max speed %v", c.Name, c.MaxSpeed)
	}
	if c.Mem <= 0 {
		return fmt.Errorf("batch: class %q non-positive memory %v", c.Name, c.Mem)
	}
	if c.GoalStretch < 1 {
		return fmt.Errorf("batch: class %q goal stretch %v < 1", c.Name, c.GoalStretch)
	}
	return nil
}

// IdealDuration is the job duration at full speed.
func (c Class) IdealDuration() float64 { return c.Work.Seconds(c.MaxSpeed) }

// Fun returns the class utility function, defaulting when nil.
func (c Class) Fun() utility.Function {
	if c.Fn == nil {
		return utility.DefaultFunction()
	}
	return c.Fn
}

// Job is one long-running job.
type Job struct {
	id        JobID
	class     Class
	submitted float64
	goal      float64
	state     State

	done       res.Work // work completed
	lastRate   res.CPU  // effective rate since lastUpdate
	lastUpdate float64  // time of last progress integration

	vmID       vm.ID
	completion *sim.Event // pending completion event
	completed  float64    // completion timestamp (valid when Completed)
	suspends   int        // times this job was suspended
}

// ID returns the job's identifier.
func (j *Job) ID() JobID { return j.id }

// Class returns the job's class.
func (j *Job) Class() Class { return j.class }

// State returns the lifecycle state.
func (j *Job) State() State { return j.state }

// Submitted returns the submission time.
func (j *Job) Submitted() float64 { return j.submitted }

// Goal returns the absolute completion-time goal.
func (j *Job) Goal() float64 { return j.goal }

// CompletedAt returns the completion time; valid only when Completed.
func (j *Job) CompletedAt() float64 { return j.completed }

// Suspends returns how many times the job has been suspended.
func (j *Job) Suspends() int { return j.suspends }

// VMID returns the job's VM identifier ("" before first placement).
func (j *Job) VMID() vm.ID { return j.vmID }

// progressTo integrates work up to time now at the current rate.
func (j *Job) progressTo(now float64) {
	if now < j.lastUpdate {
		panic(fmt.Sprintf("batch: job %q progress moving backwards: %v < %v", j.id, now, j.lastUpdate))
	}
	j.done += res.WorkFor(j.lastRate, now-j.lastUpdate)
	if j.done > j.class.Work {
		j.done = j.class.Work
	}
	j.lastUpdate = now
}

// RemainingAt returns the work left at the given time (progress
// integrated on the fly; does not mutate).
func (j *Job) RemainingAt(now float64) res.Work {
	done := j.done + res.WorkFor(j.lastRate, now-j.lastUpdate)
	if done > j.class.Work {
		done = j.class.Work
	}
	return j.class.Work - done
}

// Runtime executes jobs on the vm substrate.
type Runtime struct {
	eng  *sim.Engine
	mgr  *vm.Manager
	jobs map[JobID]*Job
	byVM map[vm.ID]*Job
	seq  []JobID // submission order

	// LoseProgressOnEvict makes node failure discard progress (restart
	// semantics) instead of the default checkpoint semantics.
	LoseProgressOnEvict bool

	onSubmit func(*Job)
}

// NewRuntime wires a job runtime to the engine and VM manager. It
// registers itself as the manager's rate and evict listener.
func NewRuntime(eng *sim.Engine, mgr *vm.Manager) *Runtime {
	rt := &Runtime{
		eng:  eng,
		mgr:  mgr,
		jobs: make(map[JobID]*Job),
		byVM: make(map[vm.ID]*Job),
	}
	mgr.AddRateListener(rt.rateChanged)
	mgr.AddEvictListener(rt.evicted)
	return rt
}

// OnSubmit installs a submission observer (nil disables).
func (rt *Runtime) OnSubmit(f func(*Job)) { rt.onSubmit = f }

// Submit registers a new pending job now. Goal is derived from the
// class stretch unless goalOverride > 0.
func (rt *Runtime) Submit(id JobID, class Class, goalOverride float64) (*Job, error) {
	if err := class.Validate(); err != nil {
		return nil, err
	}
	if _, dup := rt.jobs[id]; dup {
		return nil, fmt.Errorf("batch: duplicate job %q", id)
	}
	now := float64(rt.eng.Now())
	goal := now + class.GoalStretch*class.IdealDuration()
	if goalOverride > 0 {
		goal = goalOverride
	}
	j := &Job{
		id: id, class: class, submitted: now, goal: goal,
		state: Pending, lastUpdate: now,
	}
	rt.jobs[id] = j
	rt.seq = append(rt.seq, id)
	if rt.onSubmit != nil {
		rt.onSubmit(j)
	}
	return j, nil
}

// Job looks a job up by ID.
func (rt *Runtime) Job(id JobID) (*Job, bool) {
	j, ok := rt.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (rt *Runtime) Jobs() []*Job {
	out := make([]*Job, 0, len(rt.seq))
	for _, id := range rt.seq {
		out = append(out, rt.jobs[id])
	}
	return out
}

// Incomplete returns jobs that still have work left (Pending, Running
// or Suspended), in submission order.
func (rt *Runtime) Incomplete() []*Job {
	var out []*Job
	for _, id := range rt.seq {
		j := rt.jobs[id]
		if j.state == Pending || j.state == Running || j.state == Suspended {
			out = append(out, j)
		}
	}
	return out
}

// CompletedJobs returns completed jobs in submission order.
func (rt *Runtime) CompletedJobs() []*Job {
	var out []*Job
	for _, id := range rt.seq {
		if j := rt.jobs[id]; j.state == Completed {
			out = append(out, j)
		}
	}
	return out
}

// vmIDFor derives the VM name for a job.
func vmIDFor(id JobID) vm.ID { return vm.ID("jobvm/" + string(id)) }

// Start places a pending job on a node with an initial share.
func (rt *Runtime) Start(id JobID, node cluster.NodeID, share res.CPU) error {
	j, ok := rt.jobs[id]
	if !ok {
		return fmt.Errorf("batch: unknown job %q", id)
	}
	if j.state != Pending {
		return fmt.Errorf("batch: Start on job %q in state %v", id, j.state)
	}
	vid := vmIDFor(id)
	if err := rt.mgr.Provision(vid, node, j.class.Mem, j.class.MaxSpeed, share); err != nil {
		return err
	}
	j.vmID = vid
	rt.byVM[vid] = j
	j.state = Running
	j.lastUpdate = float64(rt.eng.Now())
	return nil
}

// Suspend checkpoints a running job.
func (rt *Runtime) Suspend(id JobID) error {
	j, ok := rt.jobs[id]
	if !ok {
		return fmt.Errorf("batch: unknown job %q", id)
	}
	if j.state != Running {
		return fmt.Errorf("batch: Suspend on job %q in state %v", id, j.state)
	}
	if err := rt.mgr.Suspend(j.vmID); err != nil {
		return err
	}
	// Rate listener already zeroed the rate and integrated progress.
	j.state = Suspended
	j.suspends++
	return nil
}

// Resume restores a suspended job onto a node.
func (rt *Runtime) Resume(id JobID, node cluster.NodeID, share res.CPU) error {
	j, ok := rt.jobs[id]
	if !ok {
		return fmt.Errorf("batch: unknown job %q", id)
	}
	if j.state != Suspended {
		return fmt.Errorf("batch: Resume on job %q in state %v", id, j.state)
	}
	if err := rt.mgr.Resume(j.vmID, node, share); err != nil {
		return err
	}
	j.state = Running
	return nil
}

// Migrate live-migrates a running job to another node.
func (rt *Runtime) Migrate(id JobID, dst cluster.NodeID) error {
	j, ok := rt.jobs[id]
	if !ok {
		return fmt.Errorf("batch: unknown job %q", id)
	}
	if j.state != Running {
		return fmt.Errorf("batch: Migrate on job %q in state %v", id, j.state)
	}
	return rt.mgr.Migrate(j.vmID, dst)
}

// SetShare adjusts a running job's CPU share.
func (rt *Runtime) SetShare(id JobID, share res.CPU) error {
	j, ok := rt.jobs[id]
	if !ok {
		return fmt.Errorf("batch: unknown job %q", id)
	}
	if j.state != Running {
		return fmt.Errorf("batch: SetShare on job %q in state %v", id, j.state)
	}
	return rt.mgr.SetShare(j.vmID, share)
}

// Cancel withdraws a job in any live state.
func (rt *Runtime) Cancel(id JobID) error {
	j, ok := rt.jobs[id]
	if !ok {
		return fmt.Errorf("batch: unknown job %q", id)
	}
	switch j.state {
	case Completed, Canceled:
		return fmt.Errorf("batch: Cancel on job %q in state %v", id, j.state)
	}
	j.progressTo(float64(rt.eng.Now()))
	j.lastRate = 0
	if j.completion != nil {
		rt.eng.Cancel(j.completion)
		j.completion = nil
	}
	if j.vmID != "" {
		if v, ok := rt.mgr.VM(j.vmID); ok && v.State() != vm.Stopped {
			if err := rt.mgr.Stop(j.vmID); err != nil {
				return err
			}
		}
	}
	j.state = Canceled
	return nil
}

// Node returns the node a job currently occupies ("" when none).
func (rt *Runtime) Node(id JobID) cluster.NodeID {
	j, ok := rt.jobs[id]
	if !ok || j.vmID == "" {
		return ""
	}
	v, ok := rt.mgr.VM(j.vmID)
	if !ok {
		return ""
	}
	return v.Node()
}

// Share returns a job's current VM share (0 when not running).
func (rt *Runtime) Share(id JobID) res.CPU {
	j, ok := rt.jobs[id]
	if !ok || j.vmID == "" {
		return 0
	}
	v, ok := rt.mgr.VM(j.vmID)
	if !ok {
		return 0
	}
	return v.Share()
}

// rateChanged is the vm rate listener: integrate progress at the old
// rate, adopt the new rate, and re-plan the completion event.
func (rt *Runtime) rateChanged(vid vm.ID, rate res.CPU) {
	j, ok := rt.byVM[vid]
	if !ok {
		return // not a job VM (e.g. a web instance)
	}
	now := float64(rt.eng.Now())
	j.progressTo(now)
	j.lastRate = rate
	rt.replanCompletion(j)
}

// evicted is the vm evict listener (node failure).
func (rt *Runtime) evicted(vid vm.ID, _ cluster.NodeID) {
	j, ok := rt.byVM[vid]
	if !ok {
		return
	}
	now := float64(rt.eng.Now())
	j.progressTo(now)
	j.lastRate = 0
	if rt.LoseProgressOnEvict {
		j.done = 0
	}
	if j.completion != nil {
		rt.eng.Cancel(j.completion)
		j.completion = nil
	}
	if j.state == Running {
		j.state = Suspended
		j.suspends++
	}
}

// completionEps tolerates float residue when deciding a job is done.
const completionEps = 1e-6

// replanCompletion cancels and reschedules the job's completion event
// to match its current rate.
func (rt *Runtime) replanCompletion(j *Job) {
	if j.completion != nil {
		rt.eng.Cancel(j.completion)
		j.completion = nil
	}
	if j.state != Running && j.state != Pending {
		return
	}
	remaining := j.class.Work - j.done
	if float64(remaining) <= completionEps {
		rt.complete(j)
		return
	}
	if j.lastRate <= 0 {
		return // stalled; a future rate change will replan
	}
	delay := remaining.Seconds(j.lastRate)
	j.completion = rt.eng.After(delay, "job-complete/"+string(j.id), func(sim.Time) {
		j.completion = nil
		j.progressTo(float64(rt.eng.Now()))
		if float64(j.class.Work-j.done) > completionEps {
			// Rate changed between scheduling and firing; replan.
			rt.replanCompletion(j)
			return
		}
		rt.complete(j)
	})
}

// complete finalizes a job.
func (rt *Runtime) complete(j *Job) {
	j.done = j.class.Work
	j.lastRate = 0
	j.state = Completed
	j.completed = float64(rt.eng.Now())
	if j.vmID != "" {
		if v, ok := rt.mgr.VM(j.vmID); ok && v.State() != vm.Stopped {
			if err := rt.mgr.Stop(j.vmID); err != nil {
				panic(fmt.Sprintf("batch: stopping VM of completed job %q: %v", j.id, err))
			}
		}
	}
}

// CompletionUtility scores a completed job against its goal.
func (rt *Runtime) CompletionUtility(id JobID) (float64, error) {
	j, ok := rt.jobs[id]
	if !ok {
		return 0, fmt.Errorf("batch: unknown job %q", id)
	}
	if j.state != Completed {
		return 0, fmt.Errorf("batch: CompletionUtility of job %q in state %v", id, j.state)
	}
	return utility.JobCompletionUtility(j.class.Fun(), j.submitted, j.goal, j.class.IdealDuration(), j.completed), nil
}

// Stats summarizes the runtime's job population.
type Stats struct {
	Pending, Running, Suspended, Completed, Canceled int
	GoalViolations                                   int     // completed after their goal
	MeanCompletionUtility                            float64 // over completed jobs
}

// Stats computes current population statistics.
func (rt *Runtime) Stats() Stats {
	var s Stats
	var utilSum float64
	for _, id := range rt.seq {
		j := rt.jobs[id]
		switch j.state {
		case Pending:
			s.Pending++
		case Running:
			s.Running++
		case Suspended:
			s.Suspended++
		case Completed:
			s.Completed++
			if j.completed > j.goal {
				s.GoalViolations++
			}
			u, _ := rt.CompletionUtility(id)
			utilSum += u
		case Canceled:
			s.Canceled++
		}
	}
	if s.Completed > 0 {
		s.MeanCompletionUtility = utilSum / float64(s.Completed)
	}
	return s
}
