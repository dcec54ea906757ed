package baseline

import (
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

func nodes(n int) []core.NodeInfo {
	out := make([]core.NodeInfo, n)
	for i := range out {
		out[i] = core.NodeInfo{
			ID:  cluster.NodeID(string(rune('a' + i))),
			CPU: 18000,
			Mem: 16000,
		}
	}
	return out
}

func job(id string, state batch.State, node cluster.NodeID, share res.CPU, submitted, goal float64) core.JobInfo {
	return core.JobInfo{
		ID: batch.JobID(id), State: state, Node: node, Share: share,
		Remaining: res.Work(4500 * 1000), MaxSpeed: 4500, Mem: 5000,
		Goal: goal, Submitted: submitted,
	}
}

func webApp(t *testing.T, lambda float64, instances map[cluster.NodeID]res.CPU) core.AppInfo {
	t.Helper()
	m, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		t.Fatal(err)
	}
	if instances == nil {
		instances = map[cluster.NodeID]res.CPU{}
	}
	return core.AppInfo{
		ID: "web", Lambda: lambda, RTGoal: 3.0, Model: m,
		InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: 1,
		Instances: instances,
	}
}

// collectJobNodes applies the plan to compute final job->node mapping.
func collectJobNodes(st *core.State, plan *core.Plan) map[batch.JobID]cluster.NodeID {
	out := map[batch.JobID]cluster.NodeID{}
	for _, j := range st.Jobs {
		if j.State == batch.Running {
			out[j.ID] = j.Node
		}
	}
	for _, a := range plan.Actions {
		switch a.Kind {
		case core.StartJob:
			out[a.Job] = a.Node
		case core.ResumeJob:
			out[a.Job] = a.Node
		case core.SuspendJob:
			delete(out, a.Job)
		case core.MigrateJob:
			out[a.Job] = a.Node
		}
	}
	return out
}

func TestStaticPartitionSeparatesWorkloads(t *testing.T) {
	c := Static{BatchFraction: 0.5}
	st := &core.State{Now: 0, Nodes: nodes(4), Apps: []core.AppInfo{webApp(t, 10, nil)}}
	for i := 0; i < 8; i++ {
		st.Jobs = append(st.Jobs, job(string(rune('1'+i)), batch.Pending, "", 0, float64(i), 5000))
	}
	plan := c.Plan(st)
	jobNodes := collectJobNodes(st, plan)
	for id, n := range jobNodes {
		if n != "a" && n != "b" {
			t.Errorf("job %v placed on web node %v", id, n)
		}
	}
	var webNodes []cluster.NodeID
	for _, a := range plan.Actions {
		if a.Kind == core.AddInstance {
			webNodes = append(webNodes, a.Node)
		}
	}
	for _, n := range webNodes {
		if n == "a" || n == "b" {
			t.Errorf("web instance on batch node %v", n)
		}
	}
	// 2 batch nodes × 3 slots = 6 of 8 jobs placed.
	if len(jobNodes) != 6 {
		t.Errorf("placed %d jobs, want 6", len(jobNodes))
	}
}

func TestStaticPanicsOnBadFraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Static{BatchFraction: 1.5}.Plan(&core.State{Nodes: nodes(2)})
}

func TestFCFSPlacesInArrivalOrderWithoutPreemption(t *testing.T) {
	c := FCFS{}
	// One node, three slots, four jobs: the three earliest run; the
	// later-submitted-but-urgent one waits (no preemption).
	st := &core.State{Now: 100, Nodes: nodes(1)}
	st.Jobs = []core.JobInfo{
		job("j1", batch.Pending, "", 0, 1, 99999),
		job("j2", batch.Pending, "", 0, 2, 99999),
		job("j3", batch.Pending, "", 0, 3, 99999),
		job("urgent", batch.Pending, "", 0, 4, 200),
	}
	plan := c.Plan(st)
	jobNodes := collectJobNodes(st, plan)
	if len(jobNodes) != 3 {
		t.Fatalf("placed %d, want 3", len(jobNodes))
	}
	if _, placed := jobNodes["urgent"]; placed {
		t.Error("FCFS placed the late-arriving urgent job over earlier arrivals")
	}
	starts, suspends := plan.Count(core.StartJob), plan.Count(core.SuspendJob)
	if starts != 3 || suspends != 0 {
		t.Errorf("starts=%d suspends=%d", starts, suspends)
	}
}

func TestEDFPreemptsForEarlierDeadline(t *testing.T) {
	c := EDF{}
	// Node full with late-deadline running jobs; an early-deadline
	// pending job must preempt one.
	st := &core.State{Now: 100, Nodes: nodes(1)}
	st.Jobs = []core.JobInfo{
		job("late1", batch.Running, "a", 4500, 1, 90000),
		job("late2", batch.Running, "a", 4500, 2, 80000),
		job("late3", batch.Running, "a", 4500, 3, 70000),
		job("early", batch.Pending, "", 0, 4, 5000),
	}
	plan := c.Plan(st)
	var suspendedID batch.JobID
	for _, a := range plan.Actions {
		if a.Kind == core.SuspendJob {
			suspendedID = a.Job
		}
	}
	if suspendedID != "late1" {
		t.Errorf("EDF suspended %q, want the latest-deadline job late1", suspendedID)
	}
	jobNodes := collectJobNodes(st, plan)
	if _, ok := jobNodes["early"]; !ok {
		t.Error("early-deadline job not placed after preemption")
	}
}

func TestEDFRunsJobsAtFullSpeed(t *testing.T) {
	c := EDF{}
	st := &core.State{Now: 0, Nodes: nodes(2)}
	st.Jobs = []core.JobInfo{job("j", batch.Pending, "", 0, 0, 9000)}
	plan := c.Plan(st)
	for _, a := range plan.Actions {
		if a.Kind == core.StartJob && a.Share != 4500 {
			t.Errorf("EDF start share %v, want full speed", a.Share)
		}
	}
}

func TestFairShareDividesEqually(t *testing.T) {
	c := FairShare{}
	// 1 app + 3 jobs on 2 nodes (36000): 9000 per entity.
	st := &core.State{Now: 0, Nodes: nodes(2), Apps: []core.AppInfo{webApp(t, 10, nil)}}
	for i := 0; i < 3; i++ {
		st.Jobs = append(st.Jobs, job(string(rune('1'+i)), batch.Pending, "", 0, float64(i), 90000))
	}
	plan := c.Plan(st)
	for _, a := range plan.Actions {
		if a.Kind == core.StartJob {
			// Jobs capped at max speed 4500 < 9000.
			if a.Share != 4500 {
				t.Errorf("fair-share job share %v, want speed cap 4500", a.Share)
			}
		}
	}
	// The app's share is min(9000, demand); λ=10 demand ≈ 43500 so 9000.
	if got := plan.AppTarget["web"]; !res.AlmostEqual(got, 9000) {
		t.Errorf("app target %v, want 9000", got)
	}
}

func TestFairShareEmptyState(t *testing.T) {
	plan := FairShare{}.Plan(&core.State{Nodes: nodes(1)})
	if len(plan.Actions) != 0 {
		t.Errorf("actions on empty state: %v", plan.Actions)
	}
}

func TestAllBaselinesProduceDiagnostics(t *testing.T) {
	ctrls := []core.Controller{
		Static{BatchFraction: 0.6}, FCFS{}, EDF{}, FairShare{},
	}
	st := &core.State{Now: 1000, Nodes: nodes(3), Apps: []core.AppInfo{webApp(t, 15, nil)}}
	for i := 0; i < 5; i++ {
		st.Jobs = append(st.Jobs, job(string(rune('1'+i)), batch.Pending, "", 0, float64(i), 9000))
	}
	for _, c := range ctrls {
		plan := c.Plan(st)
		if c.Name() == "" {
			t.Errorf("%T has empty name", c)
		}
		if plan.JobDemand <= 0 {
			t.Errorf("%s: no job demand recorded", c.Name())
		}
		if plan.AppDemand["web"] <= 0 {
			t.Errorf("%s: no app demand recorded", c.Name())
		}
		if plan.JobTarget < 0 {
			t.Errorf("%s: negative job target", c.Name())
		}
	}
}

func TestBaselinesIgnoreJobsOnUnknownNodes(t *testing.T) {
	ctrls := []core.Controller{
		Static{BatchFraction: 0.5}, FCFS{}, EDF{}, FairShare{},
	}
	st := &core.State{Now: 0, Nodes: nodes(2)}
	st.Jobs = []core.JobInfo{job("ghost", batch.Running, "zz", 4500, 0, 9000)}
	for _, c := range ctrls {
		plan := c.Plan(st) // must not panic
		for _, act := range plan.Actions {
			switch act.Kind {
			case core.StartJob, core.ResumeJob, core.SuspendJob, core.MigrateJob:
				t.Errorf("%s acted on ghost job: %v", c.Name(), act)
			}
		}
	}
}

func TestBaselineKeepsRunningJobs(t *testing.T) {
	// A running job within the batch partition stays put for every
	// baseline (none of them migrate).
	ctrls := []core.Controller{Static{BatchFraction: 0.5}, FCFS{}, EDF{}}
	for _, c := range ctrls {
		st := &core.State{Now: 0, Nodes: nodes(2)}
		st.Jobs = []core.JobInfo{job("j", batch.Running, "a", 4500, 0, 9000)}
		plan := c.Plan(st)
		jobNodes := collectJobNodes(st, plan)
		if jobNodes["j"] != "a" {
			t.Errorf("%s moved a running job", c.Name())
		}
		migs := plan.Count(core.MigrateJob)
		if migs != 0 {
			t.Errorf("%s migrated", c.Name())
		}
	}
}

// TestEDFNeverSuspendsSameVictimTwice is a regression test: when two
// memory-starved candidates in a row asked for a preemption, the EDF
// victim scan used to return the same running job twice (it checked
// the snapshot state, not the pass's suspension set). The second
// suspend released the victim's memory again, so the books went
// negative and the node was overcommitted. One victim must be
// suspended exactly once, and a candidate that cannot be helped waits.
func TestEDFNeverSuspendsSameVictimTwice(t *testing.T) {
	st := &core.State{Now: 1000, Nodes: nodes(1)}
	st.Jobs = []core.JobInfo{
		// Two early-deadline residents that are never victims.
		job("r1", batch.Running, "a", 4500, 0, 5000),
		job("r2", batch.Running, "a", 4500, 1, 6000),
		// The only eligible victim: latest deadline by far.
		job("v", batch.Running, "a", 4500, 2, 99000),
		// Two starved pending jobs; each wants a preemption.
		job("p1", batch.Pending, "", 0, 3, 20000),
		job("p2", batch.Pending, "", 0, 4, 21000),
	}
	plan := EDF{}.Plan(st)

	suspends := map[batch.JobID]int{}
	starts := 0
	for _, a := range plan.Actions {
		switch a.Kind {
		case core.SuspendJob:
			suspends[a.Job]++
		case core.StartJob:
			starts++
		}
	}
	if suspends["v"] != 1 || len(suspends) != 1 {
		t.Errorf("suspends = %v, want exactly one suspend of v", suspends)
	}
	if starts != 1 {
		t.Errorf("%d starts, want 1 (only one preemption's worth of memory exists)", starts)
	}
	// Replaying the plan must not overcommit the node: 3 residents
	// minus one victim plus one start is 15 GB of 16 GB.
	var mem res.Memory
	placed := collectJobNodes(st, plan)
	for _, j := range st.Jobs {
		if placed[j.ID] == "a" {
			mem += j.Mem
		}
	}
	if mem > st.Nodes[0].Mem {
		t.Errorf("node overcommitted: %v > %v", mem, st.Nodes[0].Mem)
	}
}
