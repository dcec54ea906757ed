package control

import (
	"slices"
	"testing"

	"slaplace/internal/baseline"
	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/metrics"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/rng"
	"slaplace/internal/sim"
	"slaplace/internal/vm"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// rig assembles a full control stack on a small cluster.
func rig(t *testing.T, nNodes int, ctrl core.Controller, opts Options) (*sim.Engine, *cluster.Cluster, *vm.Manager, *batch.Runtime, *trans.Runtime, *Loop) {
	t.Helper()
	eng := sim.New()
	cl := cluster.Uniform(nNodes, 18000, 16000)
	mgr := vm.NewManager(eng, cl, vm.DefaultCosts())
	jobs := batch.NewRuntime(eng, mgr)
	web := trans.NewRuntime(eng, mgr, rng.NewSource(9).Stream("noise"))
	rec := metrics.NewRecorder()
	sess, err := NewSession(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := NewLoop(eng, cl, mgr, jobs, web, sess, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl, mgr, jobs, web, loop
}

func jobClass() batch.Class {
	return batch.Class{
		Name:        "batch",
		Work:        res.Work(4500 * 1000), // 1000 s at full speed
		MaxSpeed:    4500,
		Mem:         5000,
		GoalStretch: 3,
	}
}

func webConfig(t *testing.T, lambda float64) trans.Config {
	t.Helper()
	m, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		t.Fatal(err)
	}
	return trans.Config{
		ID:             "web",
		RTGoal:         3.0,
		Model:          m,
		Pattern:        trans.Constant{Rate: lambda},
		InstanceMem:    1000,
		MaxPerInstance: 18000,
		MinInstances:   1,
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{CyclePeriod: 600, FirstCycle: 600, ActuationDelay: 25}).Validate(); err != nil {
		t.Errorf("paper options invalid: %v", err)
	}
	bad := []Options{
		{CyclePeriod: 0},
		{CyclePeriod: 100, FirstCycle: -1},
		{CyclePeriod: 100, ActuationDelay: 100},
		{CyclePeriod: 100, SamplePeriod: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestLoopPlacesAndCompletesJobs(t *testing.T) {
	opts := Options{CyclePeriod: 600, FirstCycle: 10, ActuationDelay: 25}
	eng, _, _, jobs, _, loop := rig(t, 2, core.New(core.DefaultConfig()), opts)
	for i := 0; i < 4; i++ {
		if _, err := jobs.Submit(batch.JobID(string(rune('a'+i))), jobClass(), 0); err != nil {
			t.Fatal(err)
		}
	}
	loop.Start()
	eng.RunUntil(8000)
	stats := jobs.Stats()
	if stats.Completed != 4 {
		t.Fatalf("completed %d of 4 jobs; stats %+v", stats.Completed, stats)
	}
	if loop.FailedActions() != 0 {
		t.Errorf("failed actions: %d", loop.FailedActions())
	}
	if loop.Cycles() == 0 {
		t.Error("no cycles ran")
	}
}

func TestLoopRespectsMemoryAndSuspendsForUrgent(t *testing.T) {
	// 1 node = 3 job slots. Submit 3 relaxed jobs, then an urgent one;
	// the loop should eventually suspend a relaxed job for the urgent.
	opts := Options{CyclePeriod: 300, FirstCycle: 10, ActuationDelay: 25}
	eng, _, mgr, jobs, _, loop := rig(t, 1, core.New(core.DefaultConfig()), opts)
	relaxed := jobClass()
	relaxed.Work = res.Work(4500 * 20000) // very long
	relaxed.GoalStretch = 5
	for i := 0; i < 3; i++ {
		jobs.Submit(batch.JobID(string(rune('a'+i))), relaxed, 0)
	}
	loop.Start()
	// Urgent job arrives later with a tight goal.
	eng.At(1000, "urgent", func(sim.Time) {
		urgent := jobClass()
		urgent.GoalStretch = 1.2
		jobs.Submit("urgent", urgent, 0)
	})
	eng.RunUntil(4000)
	u, _ := jobs.Job("urgent")
	if u.State() != batch.Running && u.State() != batch.Completed {
		t.Errorf("urgent job state %v, want running/completed", u.State())
	}
	if mgr.Counters().Suspends == 0 {
		t.Error("no suspension happened to make room for the urgent job")
	}
}

func TestLoopDeploysWebAndRecordsSeries(t *testing.T) {
	opts := Options{CyclePeriod: 600, FirstCycle: 10, ActuationDelay: 25, SamplePeriod: 100}
	eng, _, _, _, web, loop := rig(t, 3, core.New(core.DefaultConfig()), opts)
	if _, err := web.Deploy(webConfig(t, 10)); err != nil {
		t.Fatal(err)
	}
	loop.Start()
	eng.RunUntil(3000)
	app, _ := web.App("web")
	if len(app.InstanceNodes()) == 0 {
		t.Fatal("no instances placed")
	}
	rec := loop.rec
	for _, name := range []string{
		"trans/web/utility", "trans/web/rt", "trans/web/demand",
		"trans/web/alloc", "ctrl/equalized",
	} {
		if !slices.Contains(rec.SeriesNames(), name) {
			t.Errorf("series %q not recorded", name)
		}
	}
	// No jobs ran in this scenario, so the hypothetical job utility —
	// meaningless for an empty backlog — must NOT be recorded.
	if slices.Contains(rec.SeriesNames(), "jobs/hypoUtility") {
		t.Error("jobs/hypoUtility recorded despite empty backlog")
	}
	// After warm-up the app should be healthy: utility near its cap.
	if last := rec.Series("trans/web/utility").Summarize().Last; last < 0.7 {
		t.Errorf("web utility %v, want healthy (> 0.7)", last)
	}
	// Fine sampler ran too.
	if rec.Series("trans/web/rt_fine").Summarize().N == 0 {
		t.Error("fine sampler did not record")
	}
}

func TestLoopMixedWorkloadEqualizes(t *testing.T) {
	opts := Options{CyclePeriod: 600, FirstCycle: 10, ActuationDelay: 25}
	eng, _, _, jobs, web, loop := rig(t, 3, core.New(core.DefaultConfig()), opts)
	// λ=20: web demand ≈ 87000 of the 54000... λd=27000, demand≈87000
	// vs cluster 54000: web alone could eat everything. 6 long jobs
	// force a trade.
	web.Deploy(webConfig(t, 20))
	long := jobClass()
	long.Work = res.Work(4500 * 30000)
	long.GoalStretch = 2
	for i := 0; i < 6; i++ {
		jobs.Submit(batch.JobID(string(rune('a'+i))), long, 0)
	}
	loop.Start()
	eng.RunUntil(10000)
	rec := loop.rec
	webU := rec.Series("trans/web/utility").Summarize().Last
	jobU := rec.Series("jobs/hypoUtility").Summarize().Last
	if webU <= -1 || jobU <= -1 {
		t.Errorf("utilities floored: web %v jobs %v", webU, jobU)
	}
	// Both sides got CPU.
	webAlloc := rec.Series("trans/web/alloc").Summarize().Last
	jobAlloc := rec.Series("jobs/alloc").Summarize().Last
	if webAlloc <= 0 || jobAlloc <= 0 {
		t.Errorf("allocations: web %v jobs %v", webAlloc, jobAlloc)
	}
}

func TestNodeFailureRecovery(t *testing.T) {
	opts := Options{CyclePeriod: 300, FirstCycle: 10, ActuationDelay: 25}
	eng, _, _, jobs, _, loop := rig(t, 2, core.New(core.DefaultConfig()), opts)
	long := jobClass()
	long.Work = res.Work(4500 * 5000)
	jobs.Submit("j1", long, 0)
	jobs.Submit("j2", long, 0)
	loop.Start()
	eng.At(1000, "fail", func(sim.Time) {
		if err := loop.FailNode("node-001"); err != nil {
			t.Errorf("FailNode: %v", err)
		}
	})
	eng.RunUntil(30000)
	stats := jobs.Stats()
	if stats.Completed != 2 {
		t.Errorf("completed %d of 2 after node failure; stats %+v", stats.Completed, stats)
	}
	if err := loop.FailNode("nope"); err == nil {
		t.Error("FailNode on unknown node accepted")
	}
	if err := loop.RestoreNode("node-001"); err != nil {
		t.Errorf("RestoreNode: %v", err)
	}
}

func TestLoopWithBaselineControllers(t *testing.T) {
	for _, ctrl := range []core.Controller{
		baseline.FCFS{}, baseline.EDF{}, baseline.FairShare{},
		baseline.Static{BatchFraction: 0.5},
	} {
		opts := Options{CyclePeriod: 600, FirstCycle: 10, ActuationDelay: 25}
		eng, _, _, jobs, web, loop := rig(t, 2, ctrl, opts)
		web.Deploy(webConfig(t, 5))
		for i := 0; i < 3; i++ {
			jobs.Submit(batch.JobID(string(rune('a'+i))), jobClass(), 0)
		}
		loop.Start()
		eng.RunUntil(8000)
		if got := jobs.Stats().Completed; got != 3 {
			t.Errorf("%s: completed %d of 3", ctrl.Name(), got)
		}
	}
}

func TestSnapshotReflectsRuntime(t *testing.T) {
	opts := Options{CyclePeriod: 600, FirstCycle: 600, ActuationDelay: 25}
	eng, _, _, jobs, web, loop := rig(t, 2, core.New(core.DefaultConfig()), opts)
	web.Deploy(webConfig(t, 5))
	jobs.Submit("j1", jobClass(), 0)
	app, _ := web.App("web")
	app.AddInstance("node-001", 4000)
	eng.RunUntil(100)
	st := loop.backend.State(100)
	if len(st.Nodes) != 2 || len(st.Jobs) != 1 || len(st.Apps) != 1 {
		t.Fatalf("snapshot shape: %d nodes %d jobs %d apps", len(st.Nodes), len(st.Jobs), len(st.Apps))
	}
	if st.Jobs[0].State != batch.Pending {
		t.Errorf("job state %v", st.Jobs[0].State)
	}
	if st.Apps[0].Instances["node-001"] != 4000 {
		t.Errorf("instance share %v", st.Apps[0].Instances["node-001"])
	}
	if st.Apps[0].Lambda != 5 {
		t.Errorf("lambda %v", st.Apps[0].Lambda)
	}
}

func TestNewLoopValidation(t *testing.T) {
	eng := sim.New()
	cl := cluster.Uniform(1, 1000, 1000)
	mgr := vm.NewManager(eng, cl, vm.Costs{})
	jobs := batch.NewRuntime(eng, mgr)
	rec := metrics.NewRecorder()
	sess, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLoop(eng, cl, mgr, jobs, nil, sess, rec, Options{CyclePeriod: 0}); err == nil {
		t.Error("invalid options accepted")
	}
	opts := Options{CyclePeriod: 600, FirstCycle: 600, ActuationDelay: 25}
	if _, err := NewLoop(nil, cl, mgr, jobs, nil, sess, rec, opts); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewLoop(eng, cl, mgr, jobs, nil, nil, rec, opts); err == nil {
		t.Error("nil session accepted")
	}
	if _, err := NewSession(nil); err == nil {
		t.Error("nil controller accepted")
	}
	if _, err := NewLoop(eng, cl, mgr, jobs, nil, sess, rec, opts); err != nil {
		t.Errorf("valid loop rejected: %v", err)
	}
}

// TestTwoPhaseActuationOrdering: when a plan both suspends a victim and
// places a new job in the freed memory, the executor must sequence the
// placement after the suspend completes — on a full node the immediate
// placement would fail.
func TestTwoPhaseActuationOrdering(t *testing.T) {
	opts := Options{CyclePeriod: 600, FirstCycle: 600, ActuationDelay: 25}
	eng, _, mgr, jobs, _, loop := rig(t, 1, core.New(core.DefaultConfig()), opts)
	// Fill the node with three relaxed jobs.
	relaxed := jobClass()
	relaxed.Work = res.Work(4500 * 50000)
	relaxed.GoalStretch = 5
	for i := 0; i < 3; i++ {
		jobs.Submit(batch.JobID(string(rune('a'+i))), relaxed, 0)
	}
	loop.Start()
	eng.RunUntil(700) // first cycle places all three
	if got := jobs.Stats().Running; got != 3 {
		t.Fatalf("running = %d, want 3", got)
	}
	// An urgent job arrives; next cycle must suspend a victim AND place
	// the urgent job, in that order.
	urgent := jobClass()
	urgent.GoalStretch = 1.1
	jobs.Submit("urgent", urgent, 0)
	eng.RunUntil(1300)
	u, _ := jobs.Job("urgent")
	if u.State() != batch.Running {
		t.Fatalf("urgent job state %v after cycle", u.State())
	}
	if loop.FailedActions() != 0 {
		t.Errorf("failed actions: %d — placement raced the suspend", loop.FailedActions())
	}
	if mgr.Counters().Suspends != 1 {
		t.Errorf("suspends = %d, want exactly 1", mgr.Counters().Suspends)
	}
	// Memory never exceeded: at most 3 resident jobs at any time is
	// implied by zero failed actions plus the vm manager's hard checks.
}

// TestActuationDelayZeroStillWorks: with instant VM costs the loop may
// run without an actuation delay.
func TestActuationDelayZeroStillWorks(t *testing.T) {
	opts := Options{CyclePeriod: 300, FirstCycle: 10, ActuationDelay: 0}
	eng := sim.New()
	cl := cluster.Uniform(2, 18000, 16000)
	mgr := vm.NewManager(eng, cl, vm.Costs{}) // instant actuation
	jobs := batch.NewRuntime(eng, mgr)
	rec := metrics.NewRecorder()
	sess, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	loop, err := NewLoop(eng, cl, mgr, jobs, nil, sess, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	jobs.Submit("j", jobClass(), 0)
	loop.Start()
	eng.RunUntil(3000)
	if jobs.Stats().Completed != 1 {
		t.Errorf("job did not complete with zero actuation delay")
	}
}

// TestSnapshotMarksMigratingJobs: a job mid-migration must be flagged
// so the planner leaves it alone.
func TestSnapshotMarksMigratingJobs(t *testing.T) {
	opts := Options{CyclePeriod: 600, FirstCycle: 600, ActuationDelay: 25}
	eng, _, _, jobs, _, loop := rig(t, 2, core.New(core.DefaultConfig()), opts)
	long := jobClass()
	long.Work = res.Work(4500 * 50000)
	jobs.Submit("j1", long, 0)
	jobs.Start("j1", "node-001", 4500)
	eng.RunUntil(100)
	if err := jobs.Migrate("j1", "node-002"); err != nil {
		t.Fatal(err)
	}
	st := loop.backend.State(100)
	if len(st.Jobs) != 1 || !st.Jobs[0].Migrating {
		t.Errorf("snapshot did not flag migrating job: %+v", st.Jobs)
	}
	// The planner must not issue another migration for it.
	plan := core.New(core.DefaultConfig()).Plan(st)
	for _, a := range plan.Actions {
		if a.Kind == core.MigrateJob {
			t.Errorf("planner migrated an already-migrating job: %v", a)
		}
	}
	// After the copy completes the flag clears.
	eng.RunUntil(1000)
	st = loop.backend.State(1000)
	if st.Jobs[0].Migrating {
		t.Error("flag still set after migration completed")
	}
}
