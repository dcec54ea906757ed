package core

import (
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// TestJobAssignmentsSemantics applies a hand-built action list to a
// snapshot and checks every transition.
func TestJobAssignmentsSemantics(t *testing.T) {
	st := &State{
		Now: 100,
		Nodes: []NodeInfo{
			{ID: "n1", CPU: 9000, Mem: 16000},
			{ID: "n2", CPU: 9000, Mem: 16000},
		},
		Jobs: []JobInfo{
			{ID: "keep", State: batch.Running, Node: "n1", Share: 1000, Remaining: 1, MaxSpeed: 1},
			{ID: "susp", State: batch.Running, Node: "n1", Share: 2000, Remaining: 1, MaxSpeed: 1},
			{ID: "mig", State: batch.Running, Node: "n1", Share: 3000, Remaining: 1, MaxSpeed: 1},
			{ID: "reshare", State: batch.Running, Node: "n2", Share: 100, Remaining: 1, MaxSpeed: 1},
			{ID: "start", State: batch.Pending, Remaining: 1, MaxSpeed: 1},
			{ID: "resume", State: batch.Suspended, Remaining: 1, MaxSpeed: 1},
			{ID: "wait", State: batch.Pending, Remaining: 1, MaxSpeed: 1},
		},
	}
	plan := &Plan{Actions: []Action{
		{Kind: SuspendJob, Job: "susp"},
		{Kind: MigrateJob, Job: "mig", Node: "n2", Share: 3500},
		{Kind: SetJobShare, Job: "reshare", Share: 500},
		{Kind: StartJob, Job: "start", Node: "n2", Share: 700},
		{Kind: ResumeJob, Job: "resume", Node: "n1", Share: 800},
	}}
	got := plan.JobAssignments(st)
	want := map[batch.JobID]JobAssignment{
		"keep":    {State: batch.Running, Node: "n1", Share: 1000},
		"susp":    {State: batch.Suspended},
		"mig":     {State: batch.Running, Node: "n2", Share: 3500},
		"reshare": {State: batch.Running, Node: "n2", Share: 500},
		"start":   {State: batch.Running, Node: "n2", Share: 700},
		"resume":  {State: batch.Running, Node: "n1", Share: 800},
		"wait":    {State: batch.Pending},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d assignments, want %d", len(got), len(want))
	}
	for id, w := range want {
		if g := got[id]; g != w {
			t.Errorf("job %s: got %+v, want %+v", id, g, w)
		}
	}
}

// TestAppAssignmentsSemantics checks the instance-action transitions.
func TestAppAssignmentsSemantics(t *testing.T) {
	st := &State{
		Now:   0,
		Nodes: []NodeInfo{{ID: "n1", CPU: 9000, Mem: 16000}},
		Apps: []AppInfo{
			{ID: "web", Instances: map[cluster.NodeID]res.CPU{"n1": 1000, "n2": 2000}},
			{ID: "other", Instances: map[cluster.NodeID]res.CPU{}},
		},
	}
	plan := &Plan{Actions: []Action{
		{Kind: RemoveInstance, App: "web", Node: "n2"},
		{Kind: AddInstance, App: "web", Node: "n3", Share: 1500},
		{Kind: SetInstanceShare, App: "web", Node: "n1", Share: 1200},
		{Kind: AddInstance, App: "other", Node: "n1", Share: 300},
	}}
	got := plan.AppAssignments(st)
	web := got["web"]
	if len(web) != 2 || web["n1"] != 1200 || web["n3"] != 1500 {
		t.Errorf("web instances: %+v", web)
	}
	if other := got["other"]; len(other) != 1 || other["n1"] != 300 {
		t.Errorf("other instances: %+v", got["other"])
	}
	// The snapshot's own maps are untouched.
	if st.Apps[0].Instances["n1"] != 1000 || len(st.Apps[0].Instances) != 2 {
		t.Errorf("snapshot instance map mutated: %+v", st.Apps[0].Instances)
	}
}

// TestAssignmentsAgreeWithPipeline: on a real planning pass, the
// derived assignments must be coherent with the emitted actions — every
// started job runs where its action says, every suspended job holds no
// node, and totals line up with the action counts.
func TestAssignmentsAgreeWithPipeline(t *testing.T) {
	st := &State{Now: 1000}
	for i := 0; i < 4; i++ {
		st.Nodes = append(st.Nodes, NodeInfo{
			ID: cluster.NodeID(string(rune('a' + i))), CPU: 18000, Mem: 16000})
	}
	for i := 0; i < 20; i++ {
		info := JobInfo{
			ID:        batch.JobID(rune('a'+i%26)*100 + rune(i)),
			State:     batch.Pending,
			Remaining: res.Work(4500 * float64(2000+i*300)),
			MaxSpeed:  4500, Mem: 5000,
			Goal:      4000 + float64(i*500),
			Submitted: float64(i),
		}
		if i%3 == 0 {
			info.State = batch.Running
			info.Node = st.Nodes[i%4].ID
			info.Share = 4000
		}
		st.Jobs = append(st.Jobs, info)
	}
	plan := New(DefaultConfig()).Plan(st)
	got := plan.JobAssignments(st)
	if len(got) != len(st.Jobs) {
		t.Fatalf("%d assignments for %d jobs", len(got), len(st.Jobs))
	}
	for _, a := range plan.Actions {
		switch a.Kind {
		case StartJob:
			if g := got[a.Job]; g.State != batch.Running || g.Node != a.Node || g.Share != a.Share {
				t.Errorf("started job %s assignment %+v", a.Job, g)
			}
		case SuspendJob:
			if g := got[a.Job]; g.State != batch.Suspended || g.Node != "" || g.Share != 0 {
				t.Errorf("suspended job %s assignment %+v", a.Job, g)
			}
		}
	}
	// Every running assignment's node exists in the snapshot.
	for id, g := range got {
		if g.State == batch.Running {
			found := false
			for _, n := range st.Nodes {
				if n.ID == g.Node {
					found = true
				}
			}
			if !found {
				t.Errorf("job %s assigned to unknown node %q", id, g.Node)
			}
		}
	}
}
