package api

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/res"
	"slaplace/internal/rng"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// referencePlacement derives a plan's wire placement the way
// FromCorePlan used to: from core.Plan.JobAssignments and
// AppAssignments — the oracle, maps and all — sorted by ID afterwards.
func referencePlacement(st *core.State, p *core.Plan) (Placement, error) {
	var out Placement
	for id, a := range p.JobAssignments(st) {
		state, err := jobStateWire(a.State)
		if err != nil {
			return Placement{}, err
		}
		out.Jobs = append(out.Jobs, JobPlacement{ID: string(id), State: state, Node: string(a.Node), ShareMHz: float64(a.Share)})
	}
	sort.Slice(out.Jobs, func(i, j int) bool { return out.Jobs[i].ID < out.Jobs[j].ID })
	for id, inst := range p.AppAssignments(st) {
		out.Apps = append(out.Apps, AppPlacement{ID: string(id), Instances: instancesWire(inst)})
	}
	sort.Slice(out.Apps, func(i, j int) bool { return out.Apps[i].ID < out.Apps[j].ID })
	return out, nil
}

// randomPlanInput draws a snapshot and a plan against it. The plan is
// not one a controller would emit — jobs get several actions, actions
// name jobs and apps the snapshot lacks — because FromCorePlan must
// agree with the oracle on any input, not only on audited plans.
func randomPlanInput(r *rng.Stream, jobs int) (*core.State, *core.Plan) {
	st := &core.State{Now: 100}
	nodes := make([]cluster.NodeID, 6)
	for i := range nodes {
		nodes[i] = cluster.NodeID(fmt.Sprintf("n%d", i))
		st.Nodes = append(st.Nodes, core.NodeInfo{ID: nodes[i], CPU: 18000, Mem: 16000})
	}
	node := func() cluster.NodeID { return nodes[r.Intn(len(nodes))] }
	share := func() res.CPU { return res.CPU(100 * (1 + r.Intn(40))) }
	for i := 0; i < jobs; i++ {
		job := core.JobInfo{ID: batch.JobID(fmt.Sprintf("j%04d", i)), State: batch.State(r.Intn(3))}
		if job.State == batch.Running {
			job.Node, job.Share = node(), share()
		}
		st.Jobs = append(st.Jobs, job)
	}
	for i := 0; i < r.Intn(4); i++ {
		app := core.AppInfo{ID: trans.AppID(fmt.Sprintf("app%d", i)), Instances: map[cluster.NodeID]res.CPU{}}
		for k := 0; k < r.Intn(len(nodes)); k++ {
			app.Instances[node()] = share()
		}
		st.Apps = append(st.Apps, app)
	}

	p := &core.Plan{}
	for i := 0; i < r.Intn(2*jobs+2); i++ {
		job := batch.JobID(fmt.Sprintf("j%04d", r.Intn(jobs+1)))
		app := trans.AppID(fmt.Sprintf("app%d", r.Intn(5)))
		var act core.Action
		switch r.Intn(8) {
		case 0:
			act = core.Action{Kind: core.StartJob, Job: job, Node: node(), Share: share()}
		case 1:
			act = core.Action{Kind: core.ResumeJob, Job: job, Node: node(), Share: share()}
		case 2:
			act = core.Action{Kind: core.SuspendJob, Job: job}
		case 3:
			act = core.Action{Kind: core.MigrateJob, Job: job, Node: node(), Share: share()}
		case 4:
			act = core.Action{Kind: core.SetJobShare, Job: job, Share: share()}
		case 5:
			act = core.Action{Kind: core.AddInstance, App: app, Node: node(), Share: share()}
		case 6:
			act = core.Action{Kind: core.RemoveInstance, App: app, Node: node()}
		case 7:
			act = core.Action{Kind: core.SetInstanceShare, App: app, Node: node(), Share: share()}
		}
		p.Actions = append(p.Actions, act)
	}
	return st, p
}

// TestFromCorePlanMatchesAssignments: the positional job placement of
// FromCorePlan equals the one derived from the JobAssignments oracle on
// seeded random inputs of every shape the fast path must detect —
// ID-sorted snapshots, shuffled ones, duplicate job IDs, actions naming
// absent jobs, jobs in a state with no wire form, empty plans.
func TestFromCorePlanMatchesAssignments(t *testing.T) {
	shapes := []struct {
		name  string
		shape func(r *rng.Stream, st *core.State, p *core.Plan)
	}{
		{"sorted", func(*rng.Stream, *core.State, *core.Plan) {}},
		{"shuffled", func(r *rng.Stream, st *core.State, _ *core.Plan) {
			r.Shuffle(len(st.Jobs), func(i, j int) { st.Jobs[i], st.Jobs[j] = st.Jobs[j], st.Jobs[i] })
		}},
		{"duplicates", func(r *rng.Stream, st *core.State, _ *core.Plan) {
			// A later entry of the same ID, in another state, wins.
			for i := 0; i < 1+len(st.Jobs)/4; i++ {
				dup := st.Jobs[r.Intn(len(st.Jobs))]
				dup.State, dup.Node, dup.Share = batch.Running, "n0", 777
				at := r.Intn(len(st.Jobs) + 1)
				st.Jobs = append(st.Jobs[:at], append([]core.JobInfo{dup}, st.Jobs[at:]...)...)
			}
		}},
		{"adjacentDuplicates", func(r *rng.Stream, st *core.State, _ *core.Plan) {
			at := r.Intn(len(st.Jobs))
			dup := st.Jobs[at]
			dup.State, dup.Node, dup.Share = batch.Suspended, "", 0
			st.Jobs = append(st.Jobs[:at+1], append([]core.JobInfo{dup}, st.Jobs[at+1:]...)...)
		}},
		{"absentJobs", func(r *rng.Stream, _ *core.State, p *core.Plan) {
			p.Actions = append(p.Actions,
				core.Action{Kind: core.SetJobShare, Job: "ghost-share", Share: 5},
				core.Action{Kind: core.StartJob, Job: "ghost-start", Node: "n1", Share: 9},
				core.Action{Kind: core.SetJobShare, Job: "ghost-start", Share: 11},
				core.Action{Kind: core.SuspendJob, Job: "a-ghost-sorting-first"})
		}},
		{"unwireableState", func(r *rng.Stream, st *core.State, p *core.Plan) {
			// Completed has no wire form: an error, unless an action
			// (drawn at random above) overrides the job's state.
			st.Jobs[r.Intn(len(st.Jobs))].State = batch.Completed
		}},
		{"emptyPlan", func(_ *rng.Stream, _ *core.State, p *core.Plan) { p.Actions = nil }},
		{"noJobs", func(_ *rng.Stream, st *core.State, _ *core.Plan) { st.Jobs = nil }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			src := rng.NewSource(20081)
			failed := 0
			for round := 0; round < 200; round++ {
				r := src.Streamf("%s/%d", sh.name, round)
				st, p := randomPlanInput(r, 1+r.Intn(40))
				sh.shape(r, st, p)

				want, wantErr := referencePlacement(st, p)
				got, err := FromCorePlan(st, p)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("round %d: FromCorePlan error %v, oracle error %v", round, err, wantErr)
				}
				if err != nil {
					failed++
					continue
				}
				if !reflect.DeepEqual(got.Placement, want) {
					t.Fatalf("round %d: placement differs from the oracle\n got %+v\nwant %+v", round, got.Placement, want)
				}
				if len(got.Actions) != len(p.Actions) {
					t.Fatalf("round %d: %d wire actions for %d planned", round, len(got.Actions), len(p.Actions))
				}
			}
			if sh.name == "unwireableState" && (failed == 0 || failed == 200) {
				t.Fatalf("%d of 200 rounds failed: want some overridden, some not", failed)
			}
		})
	}
}

// randomPlacement draws a job placement over a window of the ID space,
// sorted by ID.
func randomPlacement(r *rng.Stream, ids int) []JobPlacement {
	var out []JobPlacement
	for i := 0; i < ids; i++ {
		if r.Bool(0.2) {
			continue
		}
		jp := JobPlacement{ID: fmt.Sprintf("j%04d", i), State: []string{JobPending, JobRunning, JobSuspended}[r.Intn(3)]}
		if jp.State == JobRunning {
			jp.Node, jp.ShareMHz = fmt.Sprintf("n%d", r.Intn(4)), float64(100*(1+r.Intn(3)))
		}
		out = append(out, jp)
	}
	return out
}

// TestDiffMergeWalkMatchesMap: Diff walks two ID-sorted job placements
// in step and falls back to a map when either is not. Shuffling only
// the previous placement forces the map without changing the expected
// output (a diff follows the new placement's order), so the two paths
// are compared directly; shuffling the new placement too, both orders
// must still agree action for action once sorted back.
func TestDiffMergeWalkMatchesMap(t *testing.T) {
	src := rng.NewSource(20082)
	for round := 0; round < 300; round++ {
		r := src.Streamf("diff/%d", round)
		ids := r.Intn(60)
		prev := &Plan{Placement: Placement{Jobs: randomPlacement(r, ids)}}
		next := &Plan{Placement: Placement{Jobs: randomPlacement(r, ids)}}
		if !jobsSorted(prev.Placement.Jobs) || !jobsSorted(next.Placement.Jobs) {
			t.Fatal("generator must draw sorted placements")
		}
		merged := next.Diff(prev)

		shuffled := &Plan{Placement: Placement{Jobs: append([]JobPlacement(nil), prev.Placement.Jobs...)}}
		r.Shuffle(len(shuffled.Placement.Jobs), func(i, j int) {
			shuffled.Placement.Jobs[i], shuffled.Placement.Jobs[j] = shuffled.Placement.Jobs[j], shuffled.Placement.Jobs[i]
		})
		if len(shuffled.Placement.Jobs) > 1 && !jobsSorted(shuffled.Placement.Jobs) {
			if mapped := next.Diff(shuffled); !reflect.DeepEqual(merged, mapped) {
				t.Fatalf("round %d: merge walk and map disagree\nmerge %+v\n  map %+v", round, merged, mapped)
			}
		}

		// A duplicate ID in prev is unsorted by definition: the map's
		// last-wins rule applies, whatever the merge would have done.
		if n := len(prev.Placement.Jobs); n > 0 {
			dup := prev.Placement.Jobs[r.Intn(n)]
			dup.State, dup.Node, dup.ShareMHz = JobRunning, "elsewhere", 1
			withDup := &Plan{Placement: Placement{Jobs: append(append([]JobPlacement(nil), prev.Placement.Jobs...), dup)}}
			lastWins := &Plan{Placement: Placement{Jobs: append([]JobPlacement(nil), prev.Placement.Jobs...)}}
			for i := range lastWins.Placement.Jobs {
				if lastWins.Placement.Jobs[i].ID == dup.ID {
					lastWins.Placement.Jobs[i] = dup
				}
			}
			if got, want := next.Diff(withDup), next.Diff(lastWins); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: duplicate previous entry\n got %+v\nwant %+v", round, got, want)
			}
		}

		// New placement shuffled: same actions, grouped the same way,
		// in the shuffled order within each group.
		mixed := &Plan{Placement: Placement{Jobs: append([]JobPlacement(nil), next.Placement.Jobs...)}}
		r.Shuffle(len(mixed.Placement.Jobs), func(i, j int) {
			mixed.Placement.Jobs[i], mixed.Placement.Jobs[j] = mixed.Placement.Jobs[j], mixed.Placement.Jobs[i]
		})
		got := mixed.Diff(prev)
		if err := sameActionsByGroup(got, merged); err != nil {
			t.Fatalf("round %d: shuffled new placement: %v", round, err)
		}
	}
}

// sameActionsByGroup reports whether two diffs hold the same actions
// with the same frees → places → shares grouping, ignoring order inside
// a group.
func sameActionsByGroup(a, b []Action) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d actions vs %d", len(a), len(b))
	}
	group := func(act Action) int {
		switch act.Type {
		case ActionSuspendJob, ActionRemoveInstance:
			return 0
		case ActionSetJobShare, ActionSetInstanceShare:
			return 2
		}
		return 1
	}
	for i := range a {
		if group(a[i]) != group(b[i]) {
			return fmt.Errorf("action %d is in group %d vs %d", i, group(a[i]), group(b[i]))
		}
	}
	key := func(acts []Action) []Action {
		out := append([]Action(nil), acts...)
		sort.Slice(out, func(i, j int) bool {
			if gi, gj := group(out[i]), group(out[j]); gi != gj {
				return gi < gj
			}
			return out[i].Job < out[j].Job
		})
		return out
	}
	if ka, kb := key(a), key(b); !reflect.DeepEqual(ka, kb) {
		return fmt.Errorf("actions differ:\n%+v\n%+v", ka, kb)
	}
	return nil
}
