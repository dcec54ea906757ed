package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/utility"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// mg1Model is the shared test queueing model (panics are impossible:
// the constants are valid).
var mg1Model = func() queueing.MG1PS {
	m, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		panic(err)
	}
	return m
}()

// The incremental planner's contract: whatever the reuse tier, the plan
// is byte-identical to the from-scratch planner's. These tests compare
// an incremental controller against a fresh from-scratch controller on
// every cycle of directed and randomized state sequences.

// cloneStateDeep copies a snapshot so two controllers plan from
// unaliased inputs.
func cloneStateDeep(st *State) *State {
	cp := &State{Now: st.Now}
	cp.Nodes = append([]NodeInfo(nil), st.Nodes...)
	cp.Jobs = append([]JobInfo(nil), st.Jobs...)
	for _, a := range st.Apps {
		ac := a
		ac.Instances = make(map[cluster.NodeID]res.CPU, len(a.Instances))
		for n, s := range a.Instances {
			ac.Instances[n] = s
		}
		cp.Apps = append(cp.Apps, ac)
	}
	return cp
}

// jobMem builds a JobInfo with an explicit memory footprint.
func jobMem(id string, state batch.State, node cluster.NodeID, mem res.Memory, remaining res.Work, goal, submitted float64) JobInfo {
	return JobInfo{
		ID: batch.JobID(id), Class: "batch", State: state, Node: node,
		Remaining: remaining, MaxSpeed: 4500, Mem: mem,
		Goal: goal, Submitted: submitted,
	}
}

// steadyTestState builds a crowded snapshot on which the carry-over
// tier provably applies: every node hosts a web instance plus two
// running jobs (5 GB free), and the pending backlog needs 12 GB — more
// than any node can free even with a single eviction (5 + 5 GB).
func steadyTestState(t *testing.T, nNodes, nPending int) *State {
	t.Helper()
	st := &State{Now: 10000, Nodes: nodes(nNodes)}
	instances := map[cluster.NodeID]res.CPU{}
	for i, n := range st.Nodes {
		instances[n.ID] = res.CPU(1000 + 10*i)
		for k := 0; k < 2; k++ {
			id := fmt.Sprintf("r%03d-%d", i, k)
			st.Jobs = append(st.Jobs, jobMem(id, batch.Running, n.ID, 5000,
				res.Work(4500*50000), 80000+float64(100*i+k), float64(i)))
			st.Jobs[len(st.Jobs)-1].Share = 4500
		}
	}
	for p := 0; p < nPending; p++ {
		id := fmt.Sprintf("p%03d", p)
		st.Jobs = append(st.Jobs, jobMem(id, batch.Pending, "", 12000,
			res.Work(4500*30000), 200000+float64(37*p), 9000+float64(p)))
	}
	app := webApp(t, "web", 65, instances)
	app.MinInstances = nNodes
	st.Apps = []AppInfo{app}
	return st
}

// comparePlans fails the test unless the two plans are byte-identical.
func comparePlans(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	if got.Digest() == want.Digest() {
		return
	}
	t.Errorf("%s: plan digests differ", label)
	if len(got.Actions) != len(want.Actions) {
		t.Fatalf("%s: %d actions vs %d from scratch", label, len(got.Actions), len(want.Actions))
	}
	for i := range got.Actions {
		if got.Actions[i].String() != want.Actions[i].String() {
			t.Fatalf("%s: action %d: %v vs %v", label, i, got.Actions[i], want.Actions[i])
		}
	}
}

// fromScratchPlan plans st on a fresh controller with reuse disabled —
// the reference semantics.
func fromScratchPlan(st *State) *Plan {
	cfg := DefaultConfig()
	cfg.Incremental = false
	return New(cfg).Plan(st)
}

// TestIncrementalSteadyCarryOver drives a steady crowded cluster
// through several cycles of demand drift and verifies that (a) every
// cycle takes the carry-over tier and (b) every plan matches the
// from-scratch planner byte for byte.
func TestIncrementalSteadyCarryOver(t *testing.T) {
	st := steadyTestState(t, 4, 6)
	inc := New(DefaultConfig())
	for cycle := 0; cycle < 8; cycle++ {
		got := inc.Plan(cloneStateDeep(st))
		want := fromScratchPlan(cloneStateDeep(st))
		comparePlans(t, fmt.Sprintf("cycle %d", cycle), got, want)
		if mode := inc.PlanStats().LastMode; mode != PlanIncremental {
			t.Fatalf("cycle %d: mode %v, want incremental", cycle, mode)
		}
		// Drift: time advances, running jobs progress, demand moves.
		st.Now += 600
		st.Apps[0].Lambda = 65 + float64(cycle%3)
		for i := range st.Jobs {
			if st.Jobs[i].State == batch.Running {
				st.Jobs[i].Remaining -= res.Work(4500 * 600)
			}
		}
	}
	stats := inc.PlanStats()
	if stats.Incremental != 8 || stats.Full != 0 {
		t.Errorf("stats = %+v, want 8 incremental plans", stats)
	}
	if stats.LastDemandDelta <= 0 {
		t.Errorf("demand delta %v, want > 0 after lambda drift", stats.LastDemandDelta)
	}
}

// TestReplayTierExactSnapshot re-plans an identical snapshot and
// expects the cached plan back, byte-identical.
func TestReplayTierExactSnapshot(t *testing.T) {
	st := steadyTestState(t, 3, 2)
	inc := New(DefaultConfig())
	first := inc.Plan(cloneStateDeep(st))
	second := inc.Plan(cloneStateDeep(st))
	comparePlans(t, "replay", second, first)
	stats := inc.PlanStats()
	if stats.Replayed != 1 {
		t.Errorf("replayed = %d, want 1 (stats %+v)", stats.Replayed, stats)
	}
	if stats.LastMode != PlanReplayed {
		t.Errorf("last mode %v, want replayed", stats.LastMode)
	}
	// Plans are read-only, so a replay hands back the cached plan
	// itself rather than a copy.
	if second != first {
		t.Error("replay returned a copy of the cached plan")
	}
}

// TestIncrementalFallsBackToFull checks that each steadiness condition,
// when violated, forces the full pipeline — and that the result still
// matches the from-scratch planner.
func TestIncrementalFallsBackToFull(t *testing.T) {
	cases := []struct {
		name    string
		disturb func(st *State)
	}{
		{"new-pending-job-that-fits", func(st *State) {
			st.Jobs = append(st.Jobs, jobMem("tiny", batch.Pending, "", 3000,
				res.Work(4500*1000), 30000, 9999))
		}},
		{"pending-job-now-evictable", func(st *State) {
			for i := range st.Jobs {
				if st.Jobs[i].State == batch.Pending {
					st.Jobs[i].Mem = 9000 // one eviction frees 10 GB
					return
				}
			}
		}},
		{"instance-gone", func(st *State) {
			delete(st.Apps[0].Instances, st.Nodes[0].ID)
		}},
		{"node-vanished", func(st *State) {
			st.Nodes = st.Nodes[1:]
		}},
		{"fewer-instances-than-needed", func(st *State) {
			// MinInstances still spans the cluster but only one
			// instance remains: the web skeleton is dirty.
			st.Apps[0].Instances = map[cluster.NodeID]res.CPU{st.Nodes[0].ID: 9000}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := steadyTestState(t, 4, 3)
			inc := New(DefaultConfig())
			inc.Plan(cloneStateDeep(st)) // warm: steady carry-over
			tc.disturb(st)
			st.Now += 600
			got := inc.Plan(cloneStateDeep(st))
			want := fromScratchPlan(cloneStateDeep(st))
			comparePlans(t, tc.name, got, want)
			if mode := inc.PlanStats().LastMode; mode != PlanFull {
				t.Errorf("mode %v, want full after disturbance", mode)
			}
		})
	}
}

// TestIncrementalEquivalenceRandom runs FuzzTierEquivalence's check
// over 25 fixed seeds, alternating the two start kinds. This is the
// standing guard on the reuse tiers' soundness conditions.
func TestIncrementalEquivalenceRandom(t *testing.T) {
	var incrementalSeen bool
	for trial := range int64(25) {
		if tierEquivalence(t, trial, trial%2 == 1) {
			incrementalSeen = true
		}
	}
	if !incrementalSeen {
		t.Error("no random trial exercised the carry-over tier; generator drifted")
	}
}

// FuzzTierEquivalence holds the replay and carry-over tiers to the
// from-scratch planner. From a steady or a random start it hands one
// controller six cycles of new States: an exact repeat of the last one,
// the same instant with one job or app field changed, or a cycle of
// world drift. Every plan must digest like a new controller's plan of a
// deep copy; a repeat must replay and a changed snapshot must not.
//
//	go test -run '^$' -fuzz 'FuzzTierEquivalence$' -fuzztime 20s ./internal/core
func FuzzTierEquivalence(f *testing.F) {
	for seed := range int64(4) {
		f.Add(seed, seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, steady bool) {
		tierEquivalence(t, seed, steady)
	})
}

// tierEquivalence is FuzzTierEquivalence's check for one (seed, start
// kind). It reports whether any cycle took the carry-over tier.
func tierEquivalence(t *testing.T, seed int64, steady bool) (carried bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var st *State
	if steady {
		st = steadyTestState(t, 2+rng.Intn(3), 1+rng.Intn(5))
	} else {
		st = randomPlannerState(rng)
	}
	inc := New(DefaultConfig())
	const repeat, changed, drift = 0, 1, 2
	step := drift
	for cycle := range 6 {
		label := fmt.Sprintf("seed %d steady %v cycle %d", seed, steady, cycle)
		got := inc.Plan(st) // st is never changed after this
		comparePlans(t, label, got, fromScratchPlan(cloneStateDeep(st)))
		switch mode := inc.PlanStats().LastMode; {
		case step == repeat && mode != PlanReplayed:
			t.Fatalf("%s: an exact repeat planned in mode %v", label, mode)
		case step == changed && mode == PlanReplayed:
			t.Fatalf("%s: a changed snapshot replayed the last plan", label)
		case mode == PlanIncremental:
			carried = true
		}
		next := cloneStateDeep(st)
		switch step = rng.Intn(3); step {
		case changed:
			if !changeOneField(rng, next) {
				step = repeat
			}
		case drift:
			mutatePlannerState(rng, next)
		}
		st = next
	}
	return carried
}

// changeOneField changes one field of one job or app of st (which has
// at least two nodes), keeping the snapshot valid, and reports whether
// there was a job or app to change.
func changeOneField(rng *rand.Rand, st *State) bool {
	if len(st.Jobs)+len(st.Apps) == 0 {
		return false
	}
	if i := rng.Intn(len(st.Jobs) + len(st.Apps)); i < len(st.Jobs) {
		j := &st.Jobs[i]
		switch rng.Intn(12) {
		case 0:
			j.ID += "x"
		case 1:
			j.Class += "x"
		case 2:
			switch j.State {
			case batch.Pending:
				j.State = batch.Suspended
			case batch.Suspended:
				j.State = batch.Pending
			default:
				j.State, j.Node, j.Share = batch.Suspended, "", 0
			}
		case 3:
			switch {
			case j.State != batch.Running:
				j.Goal += 60
			case j.Node == st.Nodes[0].ID:
				j.Node = st.Nodes[1].ID
			default:
				j.Node = st.Nodes[0].ID
			}
		case 4:
			j.Share++
		case 5:
			j.Migrating = !j.Migrating
		case 6:
			j.Remaining += 4500
		case 7:
			j.MaxSpeed += 100
		case 8:
			j.Mem += 1000
		case 9:
			j.Goal += 60
		case 10:
			j.Submitted++
		default:
			if j.Fn == nil {
				j.Fn = utility.Linear{Floor: -2}
			} else {
				j.Fn = nil
			}
		}
	} else {
		a := &st.Apps[i-len(st.Jobs)]
		switch rng.Intn(11) {
		case 0:
			a.ID += "x"
		case 1:
			a.Lambda = a.Lambda*1.1 + 1
		case 2:
			a.RTGoal += 0.5
		case 3:
			if m := (queueing.MG1PS{DemandMHzs: 1000, CoreSpeed: 4500}); a.Model != m {
				a.Model = m
			} else {
				a.Model = mg1Model
			}
		case 4:
			if a.Fn == nil {
				a.Fn = utility.Linear{Floor: -2}
			} else {
				a.Fn = nil
			}
		case 5:
			a.InstanceMem += 500
		case 6:
			a.MaxPerInstance -= 1000
		case 7:
			a.MinInstances = (a.MinInstances + 1) % (len(st.Nodes) + 1)
		case 8:
			if a.MaxInstances == 0 {
				a.MaxInstances = len(st.Nodes)
			} else {
				a.MaxInstances = 0
			}
		case 9:
			n := st.Nodes[rng.Intn(len(st.Nodes))].ID
			if _, ok := a.Instances[n]; ok {
				delete(a.Instances, n)
			} else {
				a.Instances[n] = 1000
			}
		default:
			a.MeasuredRT += 0.1
		}
	}
	return true
}

// TestSnapshotComparatorsCoverEveryField pins the field counts of the
// snapshot structs the replay tier compares by hand. If this fails you
// added a field to JobInfo or AppInfo: extend jobInfoEqual /
// appInfoEqual (and FuzzTierEquivalence's changeOneField) to cover it, then
// bump the count — otherwise replayMemo would treat snapshots differing
// only in the new field as identical and serve a stale cached plan.
func TestSnapshotComparatorsCoverEveryField(t *testing.T) {
	if got, want := reflect.TypeOf(JobInfo{}).NumField(), 12; got != want {
		t.Errorf("JobInfo has %d fields, comparator covers %d — update jobInfoEqual", got, want)
	}
	if got, want := reflect.TypeOf(AppInfo{}).NumField(), 11; got != want {
		t.Errorf("AppInfo has %d fields, comparator covers %d — update appInfoEqual", got, want)
	}
}

// TestEvictVictimSkipsStrandedJob is a regression test: a running job
// whose node vanished from the snapshot used to be walked as an
// eviction victim, dereferencing a nil ledger. The stranded job must be
// skipped and a real victim on a live node chosen instead.
func TestEvictVictimSkipsStrandedJob(t *testing.T) {
	st := &State{Now: 1000, Nodes: nodes(1)}
	// Least urgent by far, on a node outside the snapshot.
	st.Jobs = append(st.Jobs, jobMem("stranded", batch.Running, "zz", 5000,
		res.Work(4500*1000), 900000, 0))
	// Three residents fill the live node (15 GB of 16 GB).
	for i := 0; i < 3; i++ {
		st.Jobs = append(st.Jobs, jobMem(fmt.Sprintf("r%d", i), batch.Running, "a", 5000,
			res.Work(4500*1000), 50000+float64(i*1000), float64(i)))
	}
	// An urgent pending job that can only fit behind an eviction.
	st.Jobs = append(st.Jobs, jobMem("urgent", batch.Pending, "", 5000,
		res.Work(4500*1000), 2200, 500))

	plan := New(DefaultConfig()).Plan(st) // must not panic
	starts, suspends := plan.Count(StartJob), plan.Count(SuspendJob)
	if suspends != 1 || starts != 1 {
		t.Errorf("wanted one suspend + one start, got %d/%d (%v)", suspends, starts, plan.Actions)
	}
	for _, a := range plan.Actions {
		if a.Kind == SuspendJob && a.Job == "stranded" {
			t.Error("stranded job chosen as eviction victim")
		}
	}
}

// randomPlannerState builds an arbitrary-but-valid snapshot.
func randomPlannerState(rng *rand.Rand) *State {
	nNodes := 2 + rng.Intn(4)
	st := &State{Now: 5000 + float64(rng.Intn(1000)), Nodes: nodes(nNodes)}
	mems := []res.Memory{3000, 5000, 11000, 12000, 15000}
	nJobs := 4 + rng.Intn(12)
	for i := 0; i < nJobs; i++ {
		state := batch.Pending
		var node cluster.NodeID
		switch rng.Intn(3) {
		case 0:
			state = batch.Running
			node = st.Nodes[rng.Intn(nNodes)].ID
		case 1:
			state = batch.Suspended
		}
		j := jobMem(fmt.Sprintf("j%02d", i), state, node,
			mems[rng.Intn(len(mems))],
			res.Work(4500*float64(1000+rng.Intn(40000))),
			st.Now+float64(rng.Intn(60000))-5000,
			float64(rng.Intn(5000)))
		if state == batch.Running {
			j.Share = res.CPU(rng.Intn(4500) + 1)
		}
		st.Jobs = append(st.Jobs, j)
	}
	nApps := rng.Intn(3)
	for a := 0; a < nApps; a++ {
		instances := map[cluster.NodeID]res.CPU{}
		for _, n := range st.Nodes {
			if rng.Intn(2) == 0 {
				instances[n.ID] = res.CPU(rng.Intn(9000))
			}
		}
		app := AppInfo{
			ID: trans.AppID(fmt.Sprintf("app%d", a)), Lambda: 10 + float64(rng.Intn(80)),
			RTGoal: 3.0, Model: mg1Model, InstanceMem: 1000,
			MaxPerInstance: 18000, MinInstances: rng.Intn(nNodes + 1),
			Instances: instances,
		}
		st.Apps = append(st.Apps, app)
	}
	return st
}

// mutatePlannerState applies one cycle's worth of random world drift.
func mutatePlannerState(rng *rand.Rand, st *State) {
	st.Now += 600
	for i := range st.Jobs {
		j := &st.Jobs[i]
		if j.State == batch.Running {
			burn := res.Work(float64(j.Share) * 600)
			if burn >= j.Remaining {
				burn = j.Remaining / 2
			}
			j.Remaining -= burn
			if j.Remaining <= 0 {
				j.Remaining = 1
			}
		}
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		switch rng.Intn(8) {
		case 0: // arrival
			st.Jobs = append(st.Jobs, jobMem(fmt.Sprintf("n%04d", rng.Intn(10000)),
				batch.Pending, "", 5000, res.Work(4500*float64(1000+rng.Intn(20000))),
				st.Now+float64(rng.Intn(40000)), st.Now))
		case 1: // completion
			if len(st.Jobs) > 1 {
				i := rng.Intn(len(st.Jobs))
				st.Jobs = append(st.Jobs[:i], st.Jobs[i+1:]...)
			}
		case 2: // a pending job got started
			for i := range st.Jobs {
				if st.Jobs[i].State == batch.Pending {
					st.Jobs[i].State = batch.Running
					st.Jobs[i].Node = st.Nodes[rng.Intn(len(st.Nodes))].ID
					st.Jobs[i].Share = 4500
					break
				}
			}
		case 3: // a running job got suspended
			for i := range st.Jobs {
				if st.Jobs[i].State == batch.Running {
					st.Jobs[i].State = batch.Suspended
					st.Jobs[i].Node = ""
					st.Jobs[i].Share = 0
					break
				}
			}
		case 4: // demand drift
			for a := range st.Apps {
				st.Apps[a].Lambda *= 0.8 + rng.Float64()*0.4
			}
		case 5: // instance churn
			if len(st.Apps) > 0 {
				a := &st.Apps[rng.Intn(len(st.Apps))]
				n := st.Nodes[rng.Intn(len(st.Nodes))].ID
				if _, ok := a.Instances[n]; ok {
					delete(a.Instances, n)
				} else {
					a.Instances[n] = res.CPU(rng.Intn(9000))
				}
			}
		case 6: // share drift on running jobs
			for i := range st.Jobs {
				if st.Jobs[i].State == batch.Running {
					st.Jobs[i].Share = res.CPU(rng.Intn(4500) + 1)
				}
			}
		case 7: // nothing this tick
		}
	}
}
