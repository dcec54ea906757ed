package batch

import (
	"math"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/rng"
	"slaplace/internal/sim"
	"slaplace/internal/vm"
)

// instantCosts removes actuation latency so progress math is exact.
var instantCosts = vm.Costs{MigrateMBps: 0, MigrateFloor: 0}

func rig(t *testing.T, costs vm.Costs) (*sim.Engine, *vm.Manager, *Runtime) {
	t.Helper()
	eng := sim.New()
	cl := cluster.Uniform(4, 18000, 16000)
	mgr := vm.NewManager(eng, cl, costs)
	rt := NewRuntime(eng, mgr)
	return eng, mgr, rt
}

func testClass() Class {
	return Class{
		Name:        "batch",
		Work:        res.Work(4500 * 1000), // 1000 s at full speed
		MaxSpeed:    4500,
		Mem:         5000,
		GoalStretch: 3,
	}
}

func TestClassValidate(t *testing.T) {
	good := testClass()
	if err := good.Validate(); err != nil {
		t.Errorf("valid class rejected: %v", err)
	}
	cases := []func(*Class){
		func(c *Class) { c.Name = "" },
		func(c *Class) { c.Work = 0 },
		func(c *Class) { c.MaxSpeed = 0 },
		func(c *Class) { c.Mem = 0 },
		func(c *Class) { c.GoalStretch = 0.5 },
	}
	for i, mutate := range cases {
		c := testClass()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid class accepted", i)
		}
	}
}

func TestSubmitDerivesGoal(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	eng.At(100, "submit", func(sim.Time) {
		j, err := rt.Submit("j1", testClass(), 0)
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		// goal = 100 + 3×1000.
		if j.Goal() != 3100 {
			t.Errorf("goal = %v, want 3100", j.Goal())
		}
		if j.State() != Pending || j.Submitted() != 100 {
			t.Errorf("job after submit: state=%v submitted=%v", j.State(), j.Submitted())
		}
	})
	for eng.Step() {
	}
}

func TestSubmitGoalOverrideAndDuplicate(t *testing.T) {
	_, _, rt := rig(t, instantCosts)
	j, err := rt.Submit("j1", testClass(), 5555)
	if err != nil {
		t.Fatal(err)
	}
	if j.Goal() != 5555 {
		t.Errorf("goal override ignored: %v", j.Goal())
	}
	if _, err := rt.Submit("j1", testClass(), 0); err == nil {
		t.Error("duplicate submit accepted")
	}
}

func TestJobRunsToCompletionAtFullSpeed(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	rt.Submit("j1", testClass(), 0)
	if err := rt.Start("j1", "node-001", 4500); err != nil {
		t.Fatalf("Start: %v", err)
	}
	eng.RunUntil(5000)
	j, _ := rt.Job("j1")
	if j.State() != Completed {
		t.Fatalf("state = %v, want completed", j.State())
	}
	// With zero start latency, the 1000 s of work completes at t=1000.
	if math.Abs(j.CompletedAt()-1000) > 1e-6 {
		t.Errorf("completed at %v, want 1000", j.CompletedAt())
	}
	// The VM must have been stopped and its memory freed.
	if rt.Node("j1") != "" {
		t.Error("completed job still has a node")
	}
}

func TestStartLatencyDelaysProgress(t *testing.T) {
	costs := vm.Costs{StartLatency: 30}
	eng, _, rt := rig(t, costs)
	rt.Submit("j1", testClass(), 0)
	rt.Start("j1", "node-001", 4500)
	eng.RunUntil(5000)
	j, _ := rt.Job("j1")
	if math.Abs(j.CompletedAt()-1030) > 1e-6 {
		t.Errorf("completed at %v, want 1030 (30 s boot + 1000 s work)", j.CompletedAt())
	}
}

func TestHalfShareTakesTwiceAsLong(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	rt.Submit("j1", testClass(), 0)
	rt.Start("j1", "node-001", 2250)
	eng.RunUntil(5000)
	j, _ := rt.Job("j1")
	if math.Abs(j.CompletedAt()-2000) > 1e-6 {
		t.Errorf("completed at %v, want 2000", j.CompletedAt())
	}
}

func TestShareChangeMidRunIntegratesExactly(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	rt.Submit("j1", testClass(), 0)
	rt.Start("j1", "node-001", 4500)
	// After 500 s (half done), drop to quarter speed: remaining 500 s of
	// full-speed work takes 2000 s more.
	eng.At(500, "reshare", func(sim.Time) {
		if err := rt.SetShare("j1", 1125); err != nil {
			t.Errorf("SetShare: %v", err)
		}
	})
	eng.RunUntil(9000)
	j, _ := rt.Job("j1")
	if math.Abs(j.CompletedAt()-2500) > 1e-6 {
		t.Errorf("completed at %v, want 2500", j.CompletedAt())
	}
}

func TestSuspendStopsProgressResumeContinues(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	rt.Submit("j1", testClass(), 0)
	rt.Start("j1", "node-001", 4500)
	eng.At(400, "suspend", func(sim.Time) {
		if err := rt.Suspend("j1"); err != nil {
			t.Errorf("Suspend: %v", err)
		}
	})
	eng.At(1400, "resume", func(sim.Time) {
		if err := rt.Resume("j1", "node-002", 4500); err != nil {
			t.Errorf("Resume: %v", err)
		}
	})
	eng.RunUntil(9000)
	j, _ := rt.Job("j1")
	// 400 s done; 1000 s suspended; 600 s remaining => 2000.
	if math.Abs(j.CompletedAt()-2000) > 1e-6 {
		t.Errorf("completed at %v, want 2000", j.CompletedAt())
	}
	if j.Suspends() != 1 {
		t.Errorf("suspends = %d, want 1", j.Suspends())
	}
}

func TestSuspendLatencyCostsProgress(t *testing.T) {
	// With a 20 s suspend latency, progress stops at suspend initiation.
	costs := vm.Costs{SuspendLatency: 20, ResumeLatency: 20}
	eng, _, rt := rig(t, costs)
	rt.Submit("j1", testClass(), 0)
	rt.Start("j1", "node-001", 4500)
	eng.At(400, "suspend", func(sim.Time) { rt.Suspend("j1") })
	eng.At(1000, "resume", func(sim.Time) {
		if err := rt.Resume("j1", "node-001", 4500); err != nil {
			t.Errorf("Resume: %v", err)
		}
	})
	eng.RunUntil(9000)
	j, _ := rt.Job("j1")
	// 400 s done; resume issued at 1000, runs at 1020; 600 s remain => 1620.
	if math.Abs(j.CompletedAt()-1620) > 1e-6 {
		t.Errorf("completed at %v, want 1620", j.CompletedAt())
	}
}

func TestMigrationKeepsProgress(t *testing.T) {
	costs := vm.Costs{MigrateMBps: 125, MigrateFloor: 5}
	eng, _, rt := rig(t, costs)
	rt.Submit("j1", testClass(), 0)
	rt.Start("j1", "node-001", 4500)
	eng.At(300, "migrate", func(sim.Time) {
		if err := rt.Migrate("j1", "node-003"); err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	eng.RunUntil(9000)
	j, _ := rt.Job("j1")
	// Live migration: progress continues, so completion stays at 1000.
	if math.Abs(j.CompletedAt()-1000) > 1e-6 {
		t.Errorf("completed at %v, want 1000 (live migration)", j.CompletedAt())
	}
}

func TestCancelReleasesResources(t *testing.T) {
	eng, mgr, rt := rig(t, instantCosts)
	rt.Submit("j1", testClass(), 0)
	rt.Start("j1", "node-001", 4500)
	eng.At(100, "cancel", func(sim.Time) {
		if err := rt.Cancel("j1"); err != nil {
			t.Errorf("Cancel: %v", err)
		}
	})
	eng.RunUntil(5000)
	j, _ := rt.Job("j1")
	if j.State() != Canceled {
		t.Errorf("state = %v, want canceled", j.State())
	}
	if len(mgr.Residents("node-001")) != 0 {
		t.Error("canceled job left memory reserved")
	}
	if err := rt.Cancel("j1"); err == nil {
		t.Error("double cancel accepted")
	}
}

func TestEvictionChecksSuspendsJob(t *testing.T) {
	eng, mgr, rt := rig(t, instantCosts)
	rt.Submit("j1", testClass(), 0)
	rt.Start("j1", "node-001", 4500)
	eng.At(250, "fail", func(sim.Time) { mgr.ForceEvict("node-001") })
	eng.RunUntil(300)
	j, _ := rt.Job("j1")
	if j.State() != Suspended {
		t.Fatalf("state after eviction = %v, want suspended", j.State())
	}
	// Checkpoint semantics: 250 s of work retained.
	if got := float64(j.RemainingAt(300)); math.Abs(got-float64(res.Work(4500*750))) > 1 {
		t.Errorf("remaining = %v, want 750 s of work", got)
	}
	// Resume and finish.
	if err := rt.Resume("j1", "node-002", 4500); err != nil {
		t.Fatalf("Resume after eviction: %v", err)
	}
	eng.RunUntil(9000)
	if j.State() != Completed {
		t.Errorf("state = %v, want completed", j.State())
	}
}

func TestEvictionWithLoseProgress(t *testing.T) {
	eng, mgr, rt := rig(t, instantCosts)
	rt.LoseProgressOnEvict = true
	rt.Submit("j1", testClass(), 0)
	rt.Start("j1", "node-001", 4500)
	eng.At(250, "fail", func(sim.Time) { mgr.ForceEvict("node-001") })
	eng.RunUntil(300)
	j, _ := rt.Job("j1")
	if got := j.RemainingAt(300); got != j.Class().Work {
		t.Errorf("remaining after lossy eviction = %v, want full work", got)
	}
}

func TestLifecycleGuards(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	rt.Submit("j1", testClass(), 0)
	if err := rt.Suspend("j1"); err == nil {
		t.Error("suspend of pending job accepted")
	}
	if err := rt.Resume("j1", "node-001", 1); err == nil {
		t.Error("resume of pending job accepted")
	}
	if err := rt.Migrate("j1", "node-001"); err == nil {
		t.Error("migrate of pending job accepted")
	}
	if err := rt.SetShare("j1", 1); err == nil {
		t.Error("reshare of pending job accepted")
	}
	if err := rt.Start("missing", "node-001", 1); err == nil {
		t.Error("start of unknown job accepted")
	}
	rt.Start("j1", "node-001", 4500)
	if err := rt.Start("j1", "node-002", 4500); err == nil {
		t.Error("double start accepted")
	}
	eng.RunUntil(5000)
}

func TestCompletionUtilityAndStats(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	rt.Submit("j1", testClass(), 0)
	rt.Submit("j2", testClass(), 0)
	rt.Submit("j3", testClass(), 0)
	rt.Start("j1", "node-001", 4500)
	rt.Start("j2", "node-002", 900) // 5000 s > goal 3000: violation
	eng.RunUntil(20000)
	u1, err := rt.CompletionUtility("j1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u1-1) > 1e-9 {
		t.Errorf("on-time completion utility = %v, want 1", u1)
	}
	u2, _ := rt.CompletionUtility("j2")
	if u2 >= 0 {
		t.Errorf("late completion utility = %v, want negative", u2)
	}
	if _, err := rt.CompletionUtility("j3"); err == nil {
		t.Error("utility of pending job accepted")
	}
	s := rt.Stats()
	if s.Completed != 2 || s.Pending != 1 || s.GoalViolations != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestIncompleteAndOrdering(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	rt.Submit("a", testClass(), 0)
	rt.Submit("b", testClass(), 0)
	rt.Submit("c", testClass(), 0)
	rt.Start("a", "node-001", 4500)
	eng.RunUntil(5000) // a completes
	inc := rt.Incomplete()
	if len(inc) != 2 || inc[0].ID() != "b" || inc[1].ID() != "c" {
		t.Errorf("Incomplete = %v", inc)
	}
	if got := len(rt.CompletedJobs()); got != 1 {
		t.Errorf("CompletedJobs = %d", got)
	}
}

func TestGeneratorPoissonStream(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	src := rng.NewSource(42)
	gen, err := NewGenerator(rt, eng, src.Stream("arrivals"), testClass(),
		[]Phase{{Start: 0, MeanInterarrival: 260}}, 100, "job")
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	eng.RunUntil(100 * 260 * 3) // generous horizon
	if gen.Submitted() != 100 {
		t.Fatalf("submitted %d jobs, want 100", gen.Submitted())
	}
	jobs := rt.Jobs()
	if len(jobs) != 100 {
		t.Fatalf("runtime has %d jobs", len(jobs))
	}
	// Mean inter-arrival should be near 260 s.
	var sum float64
	for i := 1; i < len(jobs); i++ {
		gap := jobs[i].Submitted() - jobs[i-1].Submitted()
		if gap < 0 {
			t.Fatal("submissions out of order")
		}
		sum += gap
	}
	mean := sum / float64(len(jobs)-1)
	if mean < 180 || mean > 360 {
		t.Errorf("mean inter-arrival = %v, want ≈260", mean)
	}
}

func TestGeneratorPhaseChangeSlowsArrivals(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	src := rng.NewSource(7)
	gen, err := NewGenerator(rt, eng, src.Stream("arrivals"), testClass(),
		[]Phase{{Start: 0, MeanInterarrival: 100}, {Start: 50000, MeanInterarrival: 1000}},
		0, "job")
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	eng.RunUntil(100000)
	var early, late int
	for _, j := range rt.Jobs() {
		if j.Submitted() < 50000 {
			early++
		} else {
			late++
		}
	}
	// Expect ≈500 early and ≈50 late.
	if early < 400 || early > 600 {
		t.Errorf("early arrivals = %d, want ≈500", early)
	}
	if late < 25 || late > 90 {
		t.Errorf("late arrivals = %d, want ≈50", late)
	}
}

func TestGeneratorValidation(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	src := rng.NewSource(1)
	if _, err := NewGenerator(rt, eng, src.Stream("x"), testClass(), nil, 0, ""); err == nil {
		t.Error("no phases accepted")
	}
	if _, err := NewGenerator(rt, eng, src.Stream("x"), testClass(),
		[]Phase{{Start: 100, MeanInterarrival: 1}, {Start: 0, MeanInterarrival: 1}}, 0, ""); err == nil {
		t.Error("unsorted phases accepted")
	}
	if _, err := NewGenerator(rt, eng, src.Stream("x"), testClass(),
		[]Phase{{Start: 0, MeanInterarrival: 0}}, 0, ""); err == nil {
		t.Error("zero mean inter-arrival accepted")
	}
}

func TestGeneratorBurstAndStop(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	src := rng.NewSource(1)
	gen, _ := NewGenerator(rt, eng, src.Stream("x"), testClass(),
		[]Phase{{Start: 0, MeanInterarrival: 100}}, 5, "job")
	burst, err := gen.SubmitBurst(3)
	if err != nil || len(burst) != 3 {
		t.Fatalf("SubmitBurst: %v, %d jobs", err, len(burst))
	}
	gen.Start()
	eng.RunUntil(100000)
	if got := len(rt.Jobs()); got != 5 {
		t.Errorf("jobs = %d, want the burst 3 plus 2 up to MaxJobs 5", got)
	}
}

func TestAccessorsAndDefaults(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	var submitted []JobID
	rt.OnSubmit(func(j *Job) { submitted = append(submitted, j.ID()) })
	rt.Submit("j1", testClass(), 0)
	if len(submitted) != 1 || submitted[0] != "j1" {
		t.Errorf("OnSubmit saw %v", submitted)
	}
	j, _ := rt.Job("j1")
	if j.VMID() != "" {
		t.Errorf("VMID before start = %q", j.VMID())
	}
	if got := rt.Share("j1"); got != 0 {
		t.Errorf("Share of pending job = %v", got)
	}
	if got := rt.Node("j1"); got != "" {
		t.Errorf("Node of pending job = %q", got)
	}
	rt.Start("j1", "node-001", 2000)
	if j.VMID() == "" {
		t.Error("VMID empty after start")
	}
	if got := rt.Share("j1"); got != 2000 {
		t.Errorf("Share = %v", got)
	}
	if got := rt.Node("j1"); got != "node-001" {
		t.Errorf("Node = %q", got)
	}
	// Class utility function defaults when nil.
	if testClass().Fun() == nil {
		t.Error("Fun() returned nil")
	}
	eng.RunUntil(10)
	// Unknown-job accessors are zero-valued, not panics.
	if rt.Share("ghost") != 0 || rt.Node("ghost") != "" {
		t.Error("ghost accessors non-zero")
	}
}

func TestProgressToPanicsOnTimeTravel(t *testing.T) {
	eng, _, rt := rig(t, instantCosts)
	rt.Submit("j1", testClass(), 0)
	rt.Start("j1", "node-001", 4500)
	eng.RunUntil(100)
	j, _ := rt.Job("j1")
	defer func() {
		if recover() == nil {
			t.Fatal("backwards progress did not panic")
		}
	}()
	j.progressTo(-1)
}
