package core

import (
	"fmt"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// CheckPlan verifies the executor-facing invariants every controller's
// plan must satisfy against the snapshot it was planned from:
//
//  1. every action references a job, application and node the snapshot
//     knows about (a running job's *current* node may be unknown — that
//     is the crash-stranded case the plan is allowed to clean up — but
//     placement targets must exist),
//  2. no job is lost or duplicated: at most one action per job, and the
//     action matches the job's snapshot state (start a Pending job,
//     resume a Suspended one, suspend/migrate/reshare a Running one),
//  3. at most one action per (application, node) instance, adding only
//     where no instance runs and removing/resharing only where one does,
//  4. shares are non-negative,
//  5. replaying the plan two-phase (frees land before placements, the
//     executor's contract) leaves no node over its memory capacity and
//     no node's job tier alone over its CPU power.
//
// It returns nil when the plan is sound, or an error naming the first
// violation. The conformance suite, the shard merge tests and the chaos
// replay harness all run plans through this single checker.
func CheckPlan(st *State, plan *Plan) error {
	if plan == nil {
		return fmt.Errorf("core: nil plan")
	}
	nodes := make(map[cluster.NodeID]NodeInfo, len(st.Nodes))
	for _, n := range st.Nodes {
		nodes[n.ID] = n
	}
	jobs := make(map[batch.JobID]JobInfo, len(st.Jobs))
	for _, j := range st.Jobs {
		jobs[j.ID] = j
	}
	apps := make(map[trans.AppID]AppInfo, len(st.Apps))
	for _, a := range st.Apps {
		apps[a.ID] = a
	}

	jobActed := make(map[batch.JobID]Action)
	actJob := func(a Action, want batch.State) error {
		j, ok := jobs[a.Job]
		if !ok {
			return fmt.Errorf("core: %v references unknown job %s", a, a.Job)
		}
		if prev, dup := jobActed[a.Job]; dup {
			return fmt.Errorf("core: job %s receives two actions: %v then %v", a.Job, prev, a)
		}
		jobActed[a.Job] = a
		if j.State != want {
			return fmt.Errorf("core: %v targets %v job %s (want %v)", a, j.State, a.Job, want)
		}
		return nil
	}
	checkNode := func(a Action) error {
		if _, ok := nodes[a.Node]; !ok {
			return fmt.Errorf("core: %v references unknown node %s", a, a.Node)
		}
		return nil
	}
	instActed := make(map[trans.AppID]map[cluster.NodeID]Action)
	actInst := func(a Action, wantPresent bool) error {
		app, ok := apps[a.App]
		if !ok {
			return fmt.Errorf("core: %v references unknown app %s", a, a.App)
		}
		if err := checkNode(a); err != nil {
			return err
		}
		if _, dup := instActed[a.App][a.Node]; dup {
			return fmt.Errorf("core: instance %s/%s receives a second action %v", a.App, a.Node, a)
		}
		if instActed[a.App] == nil {
			instActed[a.App] = make(map[cluster.NodeID]Action)
		}
		instActed[a.App][a.Node] = a
		if _, present := app.Instances[a.Node]; present != wantPresent {
			if wantPresent {
				return fmt.Errorf("core: %v targets %s with no instance on %s", a, a.App, a.Node)
			}
			return fmt.Errorf("core: %v adds a duplicate instance of %s on %s", a, a.App, a.Node)
		}
		return nil
	}
	checkShare := func(a Action) error {
		if a.Share < 0 {
			return fmt.Errorf("core: %v has negative share %v", a, a.Share)
		}
		return nil
	}

	for _, a := range plan.Actions {
		var err error
		switch a.Kind {
		case StartJob, ResumeJob, MigrateJob:
			// Runs the job on Node at Share: start a pending job,
			// resume a suspended one, migrate a running one.
			want := batch.Running
			if a.Kind == StartJob {
				want = batch.Pending
			} else if a.Kind == ResumeJob {
				want = batch.Suspended
			}
			if err = actJob(a, want); err == nil {
				if err = checkNode(a); err == nil {
					err = checkShare(a)
				}
			}
		case SuspendJob:
			err = actJob(a, batch.Running)
		case SetJobShare:
			if err = actJob(a, batch.Running); err == nil {
				err = checkShare(a)
			}
		case AddInstance:
			if err = actInst(a, false); err == nil {
				err = checkShare(a)
			}
		case RemoveInstance:
			err = actInst(a, true)
		case SetInstanceShare:
			if err = actInst(a, true); err == nil {
				err = checkShare(a)
			}
		default:
			err = fmt.Errorf("core: unknown action kind %d", a.Kind)
		}
		if err != nil {
			return err
		}
	}
	return checkOccupancy(st, apps, jobActed, instActed)
}

// checkOccupancy replays the plan — as CheckPlan indexed it, at most
// one action per job and per instance — two-phase onto the snapshot:
// frees land before placements, the executor's sequencing contract. It
// verifies that no node ends over its memory capacity and no node's job
// tier alone is granted more CPU than the node has. (Web instance CPU
// shares overlap the job tier by policy design: full-speed baselines
// lean on the vm layer's proportional rescaling, so the web+jobs CPU
// total is a policy property, not an invariant.)
func checkOccupancy(st *State, apps map[trans.AppID]AppInfo,
	jobActed map[batch.JobID]Action, instActed map[trans.AppID]map[cluster.NodeID]Action) error {
	type book struct {
		mem res.Memory
		cpu res.CPU // job-tier shares only
	}
	books := make(map[cluster.NodeID]*book, len(st.Nodes))
	for _, n := range st.Nodes {
		books[n.ID] = &book{}
	}

	// Jobs after the plan. Bookings on nodes the snapshot does not know
	// are skipped: a running job stranded on a vanished node occupies no
	// live capacity.
	for _, j := range st.Jobs {
		node, share := j.Node, j.Share
		a, acted := jobActed[j.ID]
		switch {
		case acted && a.Kind == SuspendJob:
			continue // off the node
		case acted && a.Kind == SetJobShare:
			share = a.Share
		case acted:
			node, share = a.Node, a.Share // started, resumed or migrated
		case j.State != batch.Running:
			continue // stays unplaced
		}
		if b, ok := books[node]; ok {
			b.mem += j.Mem
			b.cpu += share
		}
	}
	// Web instances after the plan (memory only, per the note above).
	for _, app := range st.Apps {
		for node := range app.Instances {
			if instActed[app.ID][node].Kind == RemoveInstance {
				continue
			}
			if b, ok := books[node]; ok {
				b.mem += app.InstanceMem
			}
		}
	}
	for id, acted := range instActed {
		for node, a := range acted {
			if b, ok := books[node]; ok && a.Kind == AddInstance {
				b.mem += apps[id].InstanceMem
			}
		}
	}

	for _, n := range st.Nodes {
		b := books[n.ID]
		if b.mem > n.Mem {
			return fmt.Errorf("core: node %s over memory: %v > %v", n.ID, b.mem, n.Mem)
		}
		if float64(b.cpu) > float64(n.CPU)*(1+1e-9) {
			return fmt.Errorf("core: node %s job tier over CPU: %v > %v", n.ID, b.cpu, n.CPU)
		}
	}
	return nil
}

// FreeingFirst verifies the strict list-level ordering that merged
// shard plans and wire-plan diffs promise: every freeing action
// (Action.Frees) precedes every non-freeing action (placements and
// share changes). Single-policy plans interleave frees with placements
// — the two-phase executor makes that safe — so this check applies
// only to outputs that document the global order.
func FreeingFirst(actions []Action) error {
	for i, a := range actions {
		if !a.Frees() {
			for _, b := range actions[i+1:] {
				if b.Frees() {
					return fmt.Errorf("core: freeing action %v after non-freeing action %v", b, a)
				}
			}
			return nil
		}
	}
	return nil
}
