package core

import (
	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// This file exposes what a plan *means*: the placement that results
// from enacting its actions on the snapshot it was planned from. The
// wire layer (package api) serializes these resulting assignments so
// remote callers can diff consecutive plans instead of replaying
// action lists against their own state machines.

// JobAssignment is one job's post-plan placement. A job the plan
// leaves unplaced keeps its snapshot state (Pending or Suspended) with
// no node and no share.
type JobAssignment struct {
	State batch.State
	Node  cluster.NodeID
	Share res.CPU
}

// JobAssignments returns every snapshot job's assignment after the
// plan's actions are enacted: running jobs keep their placement unless
// suspended, migrated or re-shared; started and resumed jobs become
// running at their action's node and share. st must be the snapshot
// the plan was produced from.
func (p *Plan) JobAssignments(st *State) map[batch.JobID]JobAssignment {
	out := make(map[batch.JobID]JobAssignment, len(st.Jobs))
	for i := range st.Jobs {
		j := &st.Jobs[i]
		a := JobAssignment{State: j.State}
		if j.State == batch.Running {
			a.Node, a.Share = j.Node, j.Share
		}
		out[j.ID] = a
	}
	for _, a := range p.Actions {
		switch a.Kind {
		case StartJob, ResumeJob, MigrateJob:
			out[a.Job] = JobAssignment{State: batch.Running, Node: a.Node, Share: a.Share}
		case SuspendJob:
			out[a.Job] = JobAssignment{State: batch.Suspended}
		case SetJobShare:
			cur := out[a.Job]
			cur.Share = a.Share
			out[a.Job] = cur
		}
	}
	return out
}

// AppAssignments returns every snapshot application's post-plan
// instance set (node → share) after the plan's instance actions are
// enacted. st must be the snapshot the plan was produced from.
func (p *Plan) AppAssignments(st *State) map[trans.AppID]map[cluster.NodeID]res.CPU {
	out := make(map[trans.AppID]map[cluster.NodeID]res.CPU, len(st.Apps))
	for i := range st.Apps {
		a := &st.Apps[i]
		inst := make(map[cluster.NodeID]res.CPU, len(a.Instances))
		for n, s := range a.Instances {
			inst[n] = s
		}
		out[a.ID] = inst
	}
	for _, a := range p.Actions {
		switch a.Kind {
		case AddInstance:
			if out[a.App] == nil {
				out[a.App] = make(map[cluster.NodeID]res.CPU)
			}
			out[a.App][a.Node] = a.Share
		case RemoveInstance:
			delete(out[a.App], a.Node)
		case SetInstanceShare:
			if out[a.App] != nil {
				out[a.App][a.Node] = a.Share
			}
		}
	}
	return out
}
