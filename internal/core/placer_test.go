package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"slaplace/internal/cluster"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// nodes builds n uniform NodeInfos (paper shape: 18 GHz, 16 GB).
func nodes(n int) []NodeInfo {
	out := make([]NodeInfo, n)
	for i := range out {
		out[i] = NodeInfo{
			ID:  cluster.NodeID(string(rune('a' + i))),
			CPU: 18000,
			Mem: 16000,
		}
	}
	return out
}

// job builds a JobInfo with paper-like shape: 1-processor cap, 5 GB.
func job(id string, state batch.State, node cluster.NodeID, share res.CPU, remaining res.Work, goal float64) JobInfo {
	return JobInfo{
		ID:        batch.JobID(id),
		State:     state,
		Node:      node,
		Share:     share,
		Remaining: remaining,
		MaxSpeed:  4500,
		Mem:       5000,
		Goal:      goal,
	}
}

// webApp builds an AppInfo with an M/G/1-PS model (S = 0.3 s).
func webApp(t *testing.T, id string, lambda float64, instances map[cluster.NodeID]res.CPU) AppInfo {
	t.Helper()
	m, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		t.Fatal(err)
	}
	if instances == nil {
		instances = map[cluster.NodeID]res.CPU{}
	}
	return AppInfo{
		ID:             trans.AppID(id),
		Lambda:         lambda,
		RTGoal:         3.0,
		Model:          m,
		InstanceMem:    1000,
		MaxPerInstance: 18000,
		MinInstances:   1,
		Instances:      instances,
	}
}

// verifyFeasible checks that executing the plan cannot violate node
// memory, per-job speed caps, or per-node CPU capacity.
func verifyFeasible(t *testing.T, st *State, plan *Plan) {
	t.Helper()
	mem := map[cluster.NodeID]res.Memory{}
	cpu := map[cluster.NodeID]res.CPU{}
	caps := map[cluster.NodeID]NodeInfo{}
	for _, n := range st.Nodes {
		caps[n.ID] = n
	}
	jobNode := map[batch.JobID]cluster.NodeID{}
	jobShare := map[batch.JobID]res.CPU{}
	jobInfo := map[batch.JobID]JobInfo{}
	for _, j := range st.Jobs {
		jobInfo[j.ID] = j
		if j.State == batch.Running {
			jobNode[j.ID] = j.Node
			jobShare[j.ID] = j.Share
		}
	}
	appInst := map[trans.AppID]map[cluster.NodeID]res.CPU{}
	appInfo := map[trans.AppID]AppInfo{}
	for _, a := range st.Apps {
		appInfo[a.ID] = a
		appInst[a.ID] = map[cluster.NodeID]res.CPU{}
		for n, s := range a.Instances {
			appInst[a.ID][n] = s
		}
	}
	// Apply actions to the final (post-settlement) placement.
	for _, act := range plan.Actions {
		switch a := act.(type) {
		case SuspendJob:
			if jobNode[a.Job] == "" {
				t.Errorf("suspend of non-running job %v", a.Job)
			}
			delete(jobNode, a.Job)
			delete(jobShare, a.Job)
		case StartJob:
			if jobInfo[a.Job].State != batch.Pending {
				t.Errorf("start of non-pending job %v", a.Job)
			}
			jobNode[a.Job] = a.Node
			jobShare[a.Job] = a.Share
		case ResumeJob:
			if jobInfo[a.Job].State == batch.Running {
				t.Errorf("resume of running job %v", a.Job)
			}
			jobNode[a.Job] = a.Node
			jobShare[a.Job] = a.Share
		case MigrateJob:
			if jobNode[a.Job] == "" {
				t.Errorf("migrate of non-running job %v", a.Job)
			}
			jobNode[a.Job] = a.Dst
			jobShare[a.Job] = a.Share
		case SetJobShare:
			if jobNode[a.Job] == "" {
				t.Errorf("reshare of non-running job %v", a.Job)
			}
			jobShare[a.Job] = a.Share
		case AddInstance:
			appInst[a.App][a.Node] = a.Share
		case RemoveInstance:
			if _, ok := appInst[a.App][a.Node]; !ok {
				t.Errorf("remove of absent instance %v/%v", a.App, a.Node)
			}
			delete(appInst[a.App], a.Node)
		case SetInstanceShare:
			if _, ok := appInst[a.App][a.Node]; !ok {
				t.Errorf("reshare of absent instance %v/%v", a.App, a.Node)
			}
			appInst[a.App][a.Node] = a.Share
		}
	}
	for id, n := range jobNode {
		mem[n] += jobInfo[id].Mem
		cpu[n] += jobShare[id]
		if jobShare[id] > jobInfo[id].MaxSpeed*(1+1e-9) {
			t.Errorf("job %v share %v beyond speed cap", id, jobShare[id])
		}
	}
	for id, insts := range appInst {
		for n, s := range insts {
			mem[n] += appInfo[id].InstanceMem
			cpu[n] += s
		}
	}
	for n, m := range mem {
		if m > caps[n].Mem {
			t.Errorf("node %v memory over capacity: %v > %v", n, m, caps[n].Mem)
		}
	}
	for n, c := range cpu {
		if c > caps[n].CPU*(1+1e-6) {
			t.Errorf("node %v CPU over capacity: %v > %v", n, c, caps[n].CPU)
		}
	}
}

func TestEmptyState(t *testing.T) {
	c := New(DefaultConfig())
	plan := c.Plan(&State{Now: 0, Nodes: nodes(2)})
	if len(plan.Actions) != 0 {
		t.Errorf("empty state produced %d actions", len(plan.Actions))
	}
	if plan.HypotheticalJobUtility != 0 || plan.JobDemand != 0 {
		t.Errorf("empty state diagnostics: %+v", plan)
	}
}

func TestPendingJobsGetPlaced(t *testing.T) {
	c := New(DefaultConfig())
	st := &State{
		Now:   0,
		Nodes: nodes(2),
		Jobs: []JobInfo{
			job("j1", batch.Pending, "", 0, res.Work(4500*1000), 3000),
			job("j2", batch.Pending, "", 0, res.Work(4500*1000), 3000),
		},
	}
	plan := c.Plan(st)
	starts, _, suspends, migs, _, _, _, _ := plan.CountActions()
	if starts != 2 {
		t.Errorf("starts = %d, want 2", starts)
	}
	if suspends != 0 || migs != 0 {
		t.Errorf("unexpected churn: %v", plan.Actions)
	}
	// Abundant capacity: both at full speed.
	for _, a := range plan.Actions {
		if s, ok := a.(StartJob); ok && !res.AlmostEqual(s.Share, 4500) {
			t.Errorf("start share = %v, want 4500", s.Share)
		}
	}
	verifyFeasible(t, st, plan)
}

func TestMemoryLimitCapsRunSet(t *testing.T) {
	c := New(DefaultConfig())
	// One node: 16000 MB, jobs 5000 MB each -> only 3 fit.
	st := &State{Now: 0, Nodes: nodes(1)}
	for i := 0; i < 5; i++ {
		st.Jobs = append(st.Jobs,
			job(string(rune('1'+i)), batch.Pending, "", 0, res.Work(4500*1000), 3000))
	}
	plan := c.Plan(st)
	starts, _, _, _, _, _, _, _ := plan.CountActions()
	if starts != 3 {
		t.Errorf("starts = %d, want 3 (memory limit)", starts)
	}
	verifyFeasible(t, st, plan)
}

func TestUrgentJobEvictsLeastUrgentVictim(t *testing.T) {
	c := New(DefaultConfig())
	// Node full with three running jobs; a suspended job far behind its
	// goal (urgent) must displace the most relaxed running job.
	st := &State{Now: 10000, Nodes: nodes(1)}
	st.Jobs = []JobInfo{
		job("relaxed", batch.Running, "a", 4500, res.Work(4500*1000), 90000),
		job("mid", batch.Running, "a", 4500, res.Work(4500*1000), 40000),
		job("tight", batch.Running, "a", 4500, res.Work(4500*1000), 20000),
		job("urgent", batch.Suspended, "", 0, res.Work(4500*1000), 12000),
	}
	plan := c.Plan(st)
	_, resumes, suspends, _, _, _, _, _ := plan.CountActions()
	if suspends != 1 || resumes != 1 {
		t.Fatalf("suspends=%d resumes=%d, want 1/1; actions: %v", suspends, resumes, plan.Actions)
	}
	for _, a := range plan.Actions {
		if s, ok := a.(SuspendJob); ok && s.Job != "relaxed" {
			t.Errorf("suspended %v, want the most relaxed job", s.Job)
		}
		if r, ok := a.(ResumeJob); ok && r.Job != "urgent" {
			t.Errorf("resumed %v, want the urgent job", r.Job)
		}
	}
	verifyFeasible(t, st, plan)
}

func TestStablePlacementEmitsNoActions(t *testing.T) {
	c := New(DefaultConfig())
	// Two running jobs at the shares the planner would choose; nothing
	// should change (stability / no oscillation).
	st := &State{Now: 0, Nodes: nodes(2)}
	st.Jobs = []JobInfo{
		job("j1", batch.Running, "a", 4500, res.Work(4500*1000), 3000),
		job("j2", batch.Running, "b", 4500, res.Work(4500*1000), 3000),
	}
	plan := c.Plan(st)
	if len(plan.Actions) != 0 {
		t.Errorf("stable state produced actions: %v", plan.Actions)
	}
}

func TestWebAppGetsInstancesAndReservation(t *testing.T) {
	c := New(DefaultConfig())
	st := &State{
		Now:   0,
		Nodes: nodes(4),
		// λd = 13500; max-useful demand ≈ 43500, well under the 72000
		// cluster so the app can saturate.
		Apps: []AppInfo{webApp(t, "web", 10, nil)},
	}
	plan := c.Plan(st)
	_, _, _, _, _, adds, removes, _ := plan.CountActions()
	if adds < 1 {
		t.Fatalf("no instances added: %v", plan.Actions)
	}
	if removes != 0 {
		t.Errorf("unexpected removals")
	}
	var total res.CPU
	for _, a := range plan.Actions {
		if add, ok := a.(AddInstance); ok {
			total += add.Share
		}
	}
	// Uncontended: the app should get (about) its max-useful demand.
	demand := plan.AppDemand["web"]
	if total < demand*0.95 || total > demand*1.05 {
		t.Errorf("planned web share %v, want ≈ demand %v", total, demand)
	}
	verifyFeasible(t, st, plan)
}

func TestMixedWorkloadSharesCapacity(t *testing.T) {
	c := New(DefaultConfig())
	// 2 nodes = 36000 MHz. Web λ=20 (λd=27000, demand ≈30000+) plus 6
	// jobs wanting 4500 each: contention forces a trade-off.
	inst := map[cluster.NodeID]res.CPU{"a": 9000, "b": 9000}
	st := &State{
		Now:   0,
		Nodes: nodes(2),
		Apps:  []AppInfo{webApp(t, "web", 20, inst)},
	}
	for i := 0; i < 6; i++ {
		st.Jobs = append(st.Jobs,
			job(string(rune('1'+i)), batch.Pending, "", 0, res.Work(4500*2000), 9000))
	}
	plan := c.Plan(st)
	if plan.AppTarget["web"] <= 0 {
		t.Error("web received no allocation under contention")
	}
	if plan.JobTarget <= 0 {
		t.Error("jobs received no allocation under contention")
	}
	sum := plan.AppTarget["web"] + plan.JobTarget
	if sum > st.TotalCPU()*(1+1e-6) {
		t.Errorf("allocations %v exceed capacity %v", sum, st.TotalCPU())
	}
	// Equalization: predicted utilities of web and jobs should be close
	// when neither is saturated.
	webU := plan.AppPrediction["web"]
	jobU := plan.HypotheticalJobUtility
	if math.Abs(webU-jobU) > 0.25 {
		t.Errorf("web %v vs jobs %v utility after placement", webU, jobU)
	}
	verifyFeasible(t, st, plan)
}

func TestSurplusCPUGoesToPlacedJobs(t *testing.T) {
	c := New(DefaultConfig())
	// 20 pending jobs on 1 node: only 3 fit; the hypothetical target per
	// job is small, but the 3 placed jobs should use the node (minus
	// nothing — no web), i.e. full speed each.
	st := &State{Now: 0, Nodes: nodes(1)}
	for i := 0; i < 20; i++ {
		st.Jobs = append(st.Jobs,
			job(string(rune('a'+i)), batch.Pending, "", 0, res.Work(4500*5000), 100000))
	}
	plan := c.Plan(st)
	for _, a := range plan.Actions {
		if s, ok := a.(StartJob); ok {
			if !res.AlmostEqual(s.Share, 4500) {
				t.Errorf("placed job share %v, want full speed 4500", s.Share)
			}
		}
	}
	verifyFeasible(t, st, plan)
}

func TestJobOnVanishedNodeLeftToEvictionPath(t *testing.T) {
	c := New(DefaultConfig())
	// Job claims to run on node "z" which is not in the snapshot: the
	// planner must not touch it (the vm eviction path will surface it
	// as Suspended next cycle), and must not crash.
	st := &State{Now: 0, Nodes: nodes(1)}
	st.Jobs = []JobInfo{job("lost", batch.Running, "z", 4500, res.Work(4500*1000), 3000)}
	plan := c.Plan(st)
	for _, a := range plan.Actions {
		t.Errorf("unexpected action for stranded job: %v", a)
	}
	// Once the snapshot reports it Suspended, it is re-placed.
	st.Jobs[0].State = batch.Suspended
	st.Jobs[0].Node = ""
	plan = c.Plan(st)
	_, resumes, _, _, _, _, _, _ := plan.CountActions()
	if resumes != 1 {
		t.Errorf("suspended job not re-placed: %v", plan.Actions)
	}
	verifyFeasible(t, st, plan)
}

func TestChurnObliviousAblationMigrates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChurnAware = false
	c := New(cfg)
	// Three jobs crowded on node a while b is empty: the churn-oblivious
	// planner rebalances by migration; the churn-aware one does not need
	// to (shares already achievable... node a: 3×4500=13500 < 18000).
	st := &State{Now: 0, Nodes: nodes(2)}
	st.Jobs = []JobInfo{
		job("j1", batch.Running, "a", 4500, res.Work(4500*1000), 3000),
		job("j2", batch.Running, "a", 4500, res.Work(4500*1000), 3000),
		job("j3", batch.Running, "a", 4500, res.Work(4500*1000), 3000),
	}
	plan := c.Plan(st)
	_, _, _, migs, _, _, _, _ := plan.CountActions()
	if migs == 0 {
		t.Errorf("churn-oblivious planner did not migrate: %v", plan.Actions)
	}
	aware := New(DefaultConfig()).Plan(st)
	_, _, _, migsAware, _, _, _, _ := aware.CountActions()
	if migsAware != 0 {
		t.Errorf("churn-aware planner migrated needlessly: %v", aware.Actions)
	}
	verifyFeasible(t, st, plan)
}

func TestMigrationRebalanceWhenStarving(t *testing.T) {
	c := New(DefaultConfig())
	// Node a hosts 3 jobs AND a web instance reserving most CPU; node b
	// is empty. The jobs on a starve (18000-16000=2000 across 3 jobs)
	// and should migrate toward b.
	inst := map[cluster.NodeID]res.CPU{"a": 16000}
	app := webApp(t, "web", 11, inst) // λd = 14850, demand ≈ 16000+
	app.MaxInstances = 1
	st := &State{Now: 0, Nodes: nodes(2), Apps: []AppInfo{app}}
	st.Jobs = []JobInfo{
		job("j1", batch.Running, "a", 700, res.Work(4500*1000), 10000),
		job("j2", batch.Running, "a", 700, res.Work(4500*1000), 10000),
		job("j3", batch.Running, "a", 700, res.Work(4500*1000), 10000),
	}
	plan := c.Plan(st)
	_, _, _, migs, _, _, _, _ := plan.CountActions()
	if migs == 0 {
		t.Errorf("starving jobs were not migrated: %v", plan.Actions)
	}
	verifyFeasible(t, st, plan)
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{ShareTolerance: -0.1, MigrationGain: 1.5},
		{ShareTolerance: 1.5, MigrationGain: 1.5},
		{MigrationThreshold: 2, MigrationGain: 1.5},
		{MigrationGain: 0.5},
		{MigrationGain: 1.5, MaxMigrationsPerCycle: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{MigrationGain: 0})
}

func TestPlanDeterminism(t *testing.T) {
	c := New(DefaultConfig())
	mk := func() *State {
		inst := map[cluster.NodeID]res.CPU{"a": 9000, "c": 9000}
		st := &State{Now: 5000, Nodes: nodes(3), Apps: []AppInfo{webApp(t, "web", 30, inst)}}
		for i := 0; i < 8; i++ {
			state := batch.Pending
			node := cluster.NodeID("")
			if i%3 == 0 {
				state, node = batch.Running, "b"
			}
			st.Jobs = append(st.Jobs,
				job(string(rune('a'+i)), state, node, 3000, res.Work(4500*float64(1000+i*100)), float64(8000+i*500)))
		}
		return st
	}
	p1 := c.Plan(mk())
	p2 := c.Plan(mk())
	if len(p1.Actions) != len(p2.Actions) {
		t.Fatalf("plans differ in length: %d vs %d", len(p1.Actions), len(p2.Actions))
	}
	for i := range p1.Actions {
		if p1.Actions[i].String() != p2.Actions[i].String() {
			t.Errorf("action %d differs: %v vs %v", i, p1.Actions[i], p2.Actions[i])
		}
	}
}

// Property: for arbitrary job populations the plan is always feasible
// and never suspends more jobs than it places.
func TestPlanFeasibilityProperty(t *testing.T) {
	c := New(DefaultConfig())
	f := func(nJobs, nRunning uint8, seed uint8) bool {
		nj := int(nJobs%30) + 1
		st := &State{Now: 10000, Nodes: nodes(3)}
		running := 0
		for i := 0; i < nj; i++ {
			state := batch.Pending
			node := cluster.NodeID("")
			share := res.CPU(0)
			// Pack up to nRunning jobs onto nodes round-robin, max 3 per
			// node (memory).
			if running < int(nRunning%10) && running < 9 {
				state = batch.Running
				node = st.Nodes[running%3].ID
				share = 4500
				running++
			}
			goal := 10000 + float64((int(seed)+i*137)%20000) + 500
			st.Jobs = append(st.Jobs, job(
				string(rune('A'+i)), state, node, share,
				res.Work(4500*float64(500+(i*97)%3000)), goal))
		}
		plan := c.Plan(st)
		// Reuse the testing checker: collect failures via a sub-test
		// proxy is awkward in quick.Check, so inline the memory check.
		memUse := map[cluster.NodeID]res.Memory{}
		jobNode := map[batch.JobID]cluster.NodeID{}
		for _, j := range st.Jobs {
			if j.State == batch.Running {
				jobNode[j.ID] = j.Node
			}
		}
		starts, resumes, suspends := 0, 0, 0
		for _, act := range plan.Actions {
			switch a := act.(type) {
			case SuspendJob:
				delete(jobNode, a.Job)
				suspends++
			case StartJob:
				jobNode[a.Job] = a.Node
				starts++
			case ResumeJob:
				jobNode[a.Job] = a.Node
				resumes++
			case MigrateJob:
				jobNode[a.Job] = a.Dst
			}
		}
		for _, n := range jobNode {
			memUse[n] += 5000
		}
		for _, n := range st.Nodes {
			if memUse[n.ID] > n.Mem {
				return false
			}
		}
		return suspends <= starts+resumes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestEvictionMarginDampsThrash: with hysteresis, a marginally more
// urgent waiting job does NOT displace a running one; without it, it
// does.
func TestEvictionMarginDampsThrash(t *testing.T) {
	mkState := func() *State {
		st := &State{Now: 10000, Nodes: nodes(1)}
		st.Jobs = []JobInfo{
			job("r1", batch.Running, "a", 4500, res.Work(4500*1000), 32000),
			job("r2", batch.Running, "a", 4500, res.Work(4500*1000), 33000),
			job("r3", batch.Running, "a", 4500, res.Work(4500*1000), 34000),
			// 500 s more urgent than r3 (laxity 22500 vs 23000).
			job("w", batch.Suspended, "", 0, res.Work(4500*1000), 33500),
		}
		return st
	}
	pure := New(DefaultConfig())
	plan := pure.Plan(mkState())
	_, _, suspends, _, _, _, _, _ := plan.CountActions()
	if suspends != 1 {
		t.Errorf("pure policy suspends = %d, want 1 (w displaces r3)", suspends)
	}
	cfg := DefaultConfig()
	cfg.EvictionMargin = 1200 // one control cycle of hysteresis
	damped := New(cfg)
	plan = damped.Plan(mkState())
	_, _, suspends, _, _, _, _, _ = plan.CountActions()
	if suspends != 0 {
		t.Errorf("damped policy suspends = %d, want 0 (500 s < margin)", suspends)
	}
	// A much more urgent job still gets through the margin.
	st := mkState()
	st.Jobs[3].Goal = 25000 // laxity 14000, far below r3's 23000
	plan = damped.Plan(st)
	_, _, suspends, _, _, _, _, _ = plan.CountActions()
	if suspends != 1 {
		t.Errorf("damped policy blocked a genuinely urgent eviction: suspends = %d", suspends)
	}
}

func TestConfigRejectsNegativeEvictionMargin(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EvictionMargin = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative margin accepted")
	}
}
