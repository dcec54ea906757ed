package chaos

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/metrics"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// testState builds a snapshot with the named nodes, one running job
// per node (job-<node> on it), and one app with an instance per node.
func testState(now float64, nodes ...string) *core.State {
	st := &core.State{Now: now}
	app := core.AppInfo{
		ID: "web", Lambda: 10, RTGoal: 3, InstanceMem: 1000,
		MaxPerInstance: 9000, MinInstances: 1,
		Instances: map[cluster.NodeID]res.CPU{},
	}
	for _, n := range nodes {
		id := cluster.NodeID(n)
		st.Nodes = append(st.Nodes, core.NodeInfo{ID: id, CPU: 9000, Mem: 16000})
		st.Jobs = append(st.Jobs, core.JobInfo{
			ID: batch.JobID("job-" + n), State: batch.Running, Node: id, Share: 4000,
			Remaining: 1e6, MaxSpeed: 4500, Mem: 4000, Goal: 9000,
		})
		app.Instances[id] = 2000
	}
	st.Apps = []core.AppInfo{app}
	return st
}

func nodeSet(st *core.State) map[string]bool {
	out := map[string]bool{}
	for _, n := range st.Nodes {
		out[string(n.ID)] = true
	}
	return out
}

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"empty", Config{}, false},
		{"crash ok", Config{Crash: &Crash{Every: 2, Start: 1}}, true},
		{"crash zero every", Config{Crash: &Crash{Start: 1}}, false},
		{"crash zero start", Config{Crash: &Crash{Every: 1}}, false},
		{"crash negative lag", Config{Crash: &Crash{Every: 1, Start: 1, DetectionLag: -1}}, false},
		{"crash restore within lag", Config{Crash: &Crash{Every: 1, Start: 1, DetectionLag: 3, RestoreAfter: 2}}, false},
		{"crash restore after lag", Config{Crash: &Crash{Every: 1, Start: 1, DetectionLag: 2, RestoreAfter: 4}}, true},
		{"flap ok", Config{Flap: &Flap{Nodes: 1, Period: 2, Start: 1}}, true},
		{"flap zero nodes", Config{Flap: &Flap{Period: 2, Start: 1}}, false},
		{"flap zero period", Config{Flap: &Flap{Nodes: 1, Start: 1}}, false},
		{"flap zero start", Config{Flap: &Flap{Nodes: 1, Period: 1}}, false},
		{"wave ok", Config{Wave: &Wave{DepartAt: 2, Count: 1}}, true},
		{"wave zero depart", Config{Wave: &Wave{Count: 1}}, false},
		{"wave zero count", Config{Wave: &Wave{DepartAt: 1}}, false},
		{"wave early return", Config{Wave: &Wave{DepartAt: 3, Count: 1, ReturnAt: 3}}, false},
		{"stale ok", Config{Stale: &Stale{DuplicateEvery: 2}}, true},
		{"stale empty", Config{Stale: &Stale{}}, false},
		{"stale duplicate one", Config{Stale: &Stale{DuplicateEvery: 1}}, false},
		{"stale regress one", Config{Stale: &Stale{RegressEvery: 1}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want validation error")
			}
		})
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New must reject an invalid config")
	}
}

// TestCrashPureLie: with no World, a crash is a monitoring lie — the
// node survives the cycle it dies (mid-cycle), lingers through the
// detection lag, then vanishes while its jobs stay reported.
func TestCrashPureLie(t *testing.T) {
	e := mustEngine(t, Config{Seed: 7, Crash: &Crash{Every: 100, Start: 2, DetectionLag: 1}})
	counts := []int{}
	var victim string
	for cycle := 1; cycle <= 5; cycle++ {
		out := e.Step(testState(float64(cycle*100), "a", "b", "c"), World{})
		counts = append(counts, len(out.Nodes))
		if cycle == 4 {
			for n := range nodeSet(testState(0, "a", "b", "c")) {
				if !nodeSet(out)[n] {
					victim = n
				}
			}
			// The victim's job must still be reported, stranded Running
			// on the hidden node.
			found := false
			for _, j := range out.Jobs {
				if string(j.Node) == victim && j.State == batch.Running {
					found = true
				}
			}
			if !found {
				t.Errorf("no stranded job on hidden node %s", victim)
			}
			// Its instances must be scrubbed with the node.
			if _, ok := out.Apps[0].Instances[cluster.NodeID(victim)]; ok {
				t.Errorf("instance on hidden node %s not scrubbed", victim)
			}
		}
	}
	// Cycle 2 is the mid-cycle lie, cycle 3 the lag, cycles 4-5 hidden.
	want := []int{3, 3, 3, 2, 2}
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Errorf("node counts %v, want %v", counts, want)
	}
	if s := e.Stats(); s.Crashes != 1 || s.Cycles != 5 {
		t.Errorf("stats %+v, want 1 crash over 5 cycles", s)
	}
}

// TestCrashWorldAndRestore drives a real-world crash: the world takes
// the node down, the lag splices it (and its evicted job, re-reported
// Running) back into snapshots, and the restore brings it back.
func TestCrashWorldAndRestore(t *testing.T) {
	e := mustEngine(t, Config{Seed: 1, Crash: &Crash{Every: 100, Start: 1, DetectionLag: 2, RestoreAfter: 3}})
	down := map[cluster.NodeID]bool{}
	w := World{
		Fail:    func(id cluster.NodeID) error { down[id] = true; return nil },
		Restore: func(id cluster.NodeID) error { delete(down, id); return nil },
	}
	// feed builds the true state honoring the world: node gone when
	// down, its job evicted to Suspended.
	feed := func(now float64) *core.State {
		st := testState(now, "a")
		if down["a"] {
			st.Nodes = nil
			st.Jobs[0].State = batch.Suspended
			st.Jobs[0].Node = ""
			st.Jobs[0].Share = 0
			delete(st.Apps[0].Instances, "a")
		}
		return st
	}

	out := e.Step(feed(100), w) // crash lands after this snapshot
	if len(out.Nodes) != 1 || !down["a"] {
		t.Fatalf("cycle 1: nodes=%d down=%v, want mid-cycle lie with world down", len(out.Nodes), down)
	}
	for cycle := 2; cycle <= 3; cycle++ { // detection lag: spliced back
		out = e.Step(feed(float64(cycle*100)), w)
		if len(out.Nodes) != 1 || string(out.Nodes[0].ID) != "a" {
			t.Fatalf("cycle %d: dead node not spliced: %v", cycle, out.Nodes)
		}
		if out.Jobs[0].State != batch.Running || out.Jobs[0].Node != "a" {
			t.Errorf("cycle %d: evicted job not re-reported Running: %+v", cycle, out.Jobs[0])
		}
		if _, ok := out.Apps[0].Instances["a"]; !ok {
			t.Errorf("cycle %d: instance not spliced", cycle)
		}
	}
	out = e.Step(feed(400), w) // restore fires now, lands next snapshot
	if down["a"] {
		t.Error("cycle 4: world not restored")
	}
	if len(out.Nodes) != 0 {
		t.Errorf("cycle 4: restored node visible too early: %v", out.Nodes)
	}
	out = e.Step(feed(500), w)
	if len(out.Nodes) != 1 {
		t.Errorf("cycle 5: restored node missing: %v", out.Nodes)
	}
	if s := e.Stats(); s.Crashes != 1 || s.Restores != 1 {
		t.Errorf("stats %+v, want 1 crash and 1 restore", s)
	}
}

// TestCrashExhaustion: once every node is down, no further crash fires.
func TestCrashExhaustion(t *testing.T) {
	e := mustEngine(t, Config{Seed: 3, Crash: &Crash{Every: 1, Start: 1}})
	for cycle := 1; cycle <= 3; cycle++ {
		e.Step(testState(float64(cycle*100), "a"), World{})
	}
	if s := e.Stats(); s.Crashes != 1 {
		t.Errorf("crashes %d, want 1 (single node)", s.Crashes)
	}
}

func TestFlap(t *testing.T) {
	e := mustEngine(t, Config{Seed: 5, Flap: &Flap{Nodes: 1, Period: 1, Start: 2}})
	var hidden []string
	counts := []int{}
	for cycle := 1; cycle <= 5; cycle++ {
		out := e.Step(testState(float64(cycle*100), "a", "b", "c"), World{})
		counts = append(counts, len(out.Nodes))
		if len(out.Nodes) == 2 {
			for n := range nodeSet(testState(0, "a", "b", "c")) {
				if !nodeSet(out)[n] {
					hidden = append(hidden, n)
				}
			}
		}
	}
	want := []int{3, 2, 3, 2, 3} // down on cycles 2 and 4
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Fatalf("node counts %v, want %v", counts, want)
	}
	if len(hidden) != 2 || hidden[0] != hidden[1] {
		t.Errorf("flap set not stable: %v", hidden)
	}
	if s := e.Stats(); s.FlapCycles != 2 {
		t.Errorf("flap cycles %d, want 2", s.FlapCycles)
	}
}

func TestWave(t *testing.T) {
	e := mustEngine(t, Config{Seed: 9, Wave: &Wave{DepartAt: 2, Count: 2, ReturnAt: 4}})
	down := map[cluster.NodeID]bool{}
	w := World{
		Fail:    func(id cluster.NodeID) error { down[id] = true; return nil },
		Restore: func(id cluster.NodeID) error { delete(down, id); return nil },
	}
	feed := func(now float64) *core.State {
		st := testState(now, "a", "b", "c", "d")
		kept := st.Nodes[:0]
		for _, n := range st.Nodes {
			if !down[n.ID] {
				kept = append(kept, n)
			}
		}
		st.Nodes = kept
		return st
	}
	counts := []int{}
	for cycle := 1; cycle <= 5; cycle++ {
		out := e.Step(feed(float64(cycle*100)), w)
		counts = append(counts, len(out.Nodes))
	}
	// Departure detected immediately at cycle 2; return lands after
	// cycle 4's snapshot.
	want := []int{4, 2, 2, 2, 4}
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Errorf("node counts %v, want %v", counts, want)
	}
	if s := e.Stats(); s.Departed != 2 || s.Returned != 2 {
		t.Errorf("stats %+v, want 2 departed and 2 returned", s)
	}
	if len(down) != 0 {
		t.Errorf("world still down: %v", down)
	}
}

func TestStale(t *testing.T) {
	e := mustEngine(t, Config{Seed: 2, Stale: &Stale{DuplicateEvery: 3, RegressEvery: 4}})
	// Mark each true snapshot by its job count so replays are evident.
	feed := func(cycle int) *core.State {
		st := testState(float64(cycle*100), "a")
		for i := 1; i < cycle; i++ {
			st.Jobs = append(st.Jobs, core.JobInfo{
				ID: batch.JobID(fmt.Sprintf("extra-%d", i)), State: batch.Pending,
				Remaining: 1e6, MaxSpeed: 4500, Mem: 4000, Goal: 9000,
			})
		}
		return st
	}
	var outs []*core.State
	for cycle := 1; cycle <= 4; cycle++ {
		outs = append(outs, e.Step(feed(cycle), World{}))
	}
	// Cycle 3 duplicates cycle 2's content, re-stamped to cycle 3's clock.
	if got := outs[2]; got.Now != 300 || len(got.Jobs) != len(outs[1].Jobs) {
		t.Errorf("duplicate: now=%v jobs=%d, want now 300 with cycle-2 jobs (%d)",
			got.Now, len(got.Jobs), len(outs[1].Jobs))
	}
	// Cycle 4 regresses: cycle 3's report verbatim, old clock included.
	if got := outs[3]; got.Now != 300 || len(got.Jobs) != len(outs[2].Jobs) {
		t.Errorf("regression: now=%v jobs=%d, want verbatim cycle-3 replay",
			got.Now, len(got.Jobs))
	}
	if s := e.Stats(); s.Duplicates != 1 || s.Regressions != 1 {
		t.Errorf("stats %+v, want 1 duplicate and 1 regression", s)
	}
}

// TestDeterminism: identical seeds and feeds produce identical
// perturbed streams; a different seed may differ but must be
// self-consistent.
func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 11, Crash: &Crash{Every: 2, Start: 1, DetectionLag: 1},
		Flap: &Flap{Nodes: 2, Period: 2, Start: 2}}
	run := func() []string {
		e := mustEngine(t, cfg)
		var sig []string
		for cycle := 1; cycle <= 8; cycle++ {
			out := e.Step(testState(float64(cycle*100), "a", "b", "c", "d", "e"), World{})
			ids := ""
			for _, n := range out.Nodes {
				ids += string(n.ID) + ","
			}
			sig = append(sig, fmt.Sprintf("%v:%s", out.Now, ids))
		}
		return sig
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed diverged:\n%v\n%v", a, b)
	}
}

func TestWorldErrors(t *testing.T) {
	e := mustEngine(t, Config{Seed: 1, Crash: &Crash{Every: 1, Start: 1}})
	w := World{Fail: func(cluster.NodeID) error { return fmt.Errorf("nope") }}
	e.Step(testState(100, "a", "b"), w)
	if s := e.Stats(); s.WorldErrors != 1 {
		t.Errorf("world errors %d, want 1", s.WorldErrors)
	}
}

// fakeInner is a minimal ClusterBackend for Backend tests.
type fakeInner struct {
	st      *core.State
	enacted []*core.Plan
	failed  int
}

func (f *fakeInner) Snapshot(t0, now float64) *core.State {
	st := cloneState(f.st)
	st.Now = now
	return st
}
func (f *fakeInner) Observe(rec *metrics.Recorder, st *core.State, now float64) {
	rec.Series("observed").Add(now, 1)
}
func (f *fakeInner) Enact(plan *core.Plan) { f.enacted = append(f.enacted, plan) }
func (f *fakeInner) FailedActions() int    { return f.failed }

func TestBackendAuditAndSeries(t *testing.T) {
	eng := mustEngine(t, Config{Seed: 1, Stale: &Stale{DuplicateEvery: 2}})
	rec := metrics.NewRecorder()
	var seen []error
	b := NewBackend(eng, BackendOptions{
		Recorder:    rec,
		Check:       core.CheckPlan,
		OnViolation: func(err error) { seen = append(seen, err) },
	})
	inner := &fakeInner{st: testState(0, "a", "b"), failed: 3}
	cb := b.Wrap(inner)

	st := cb.Snapshot(0, 100)
	cb.Observe(rec, st, 100)
	// A sound plan passes the audit.
	cb.Enact(&core.Plan{Actions: []core.Action{{Kind: core.SuspendJob, Job: "job-a"}}})
	if b.Violations() != 0 {
		t.Fatalf("sound plan flagged: %s", b.FirstViolation())
	}
	// A plan referencing an unknown job fails it.
	st = cb.Snapshot(100, 200)
	cb.Enact(&core.Plan{Actions: []core.Action{{Kind: core.SuspendJob, Job: "ghost"}}})
	if b.Violations() != 1 || b.FirstViolation() == "" || len(seen) != 1 {
		t.Fatalf("violation not recorded: n=%d first=%q callbacks=%d",
			b.Violations(), b.FirstViolation(), len(seen))
	}
	if !strings.Contains(b.FirstViolation(), "unknown job") {
		t.Errorf("unexpected violation %q", b.FirstViolation())
	}
	for _, name := range []string{"chaos/nodesVisible", "chaos/crashes",
		"chaos/staleReplays", "chaos/planMigrations", "chaos/planSuspends", "observed"} {
		if !slices.Contains(rec.SeriesNames(), name) {
			t.Errorf("missing series %q", name)
		}
	}
	if len(inner.enacted) != 2 {
		t.Errorf("inner saw %d plans, want 2 (audited plans still actuate)", len(inner.enacted))
	}
	if cb.FailedActions() != 3 {
		t.Errorf("failed actions %d, want pass-through 3", cb.FailedActions())
	}
	if b.Stats().Cycles != 2 {
		t.Errorf("engine cycles %d, want 2", b.Stats().Cycles)
	}
}
