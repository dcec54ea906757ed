package core

import (
	"strings"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// invariantState builds the fixed snapshot the violation table plans
// against: two nodes, one job in each state, one web app with a single
// instance.
func invariantState() *State {
	return &State{
		Now: 1000,
		Nodes: []NodeInfo{
			{ID: "n1", CPU: 9000, Mem: 8000},
			{ID: "n2", CPU: 9000, Mem: 8000},
		},
		Jobs: []JobInfo{
			{ID: "run", State: batch.Running, Node: "n1", Share: 4000,
				Remaining: 1e6, MaxSpeed: 4500, Mem: 4000, Goal: 9000},
			{ID: "pend", State: batch.Pending,
				Remaining: 1e6, MaxSpeed: 4500, Mem: 4000, Goal: 9000},
			{ID: "susp", State: batch.Suspended,
				Remaining: 1e6, MaxSpeed: 4500, Mem: 4000, Goal: 9000},
		},
		Apps: []AppInfo{
			{ID: "web", Lambda: 10, RTGoal: 3, InstanceMem: 1000,
				MaxPerInstance: 9000, MinInstances: 1,
				Instances: map[cluster.NodeID]res.CPU{"n1": 2000}},
		},
	}
}

func TestCheckPlanViolations(t *testing.T) {
	cases := []struct {
		name    string
		actions []Action
		wantErr string // "" = plan must pass
	}{
		{"empty plan", nil, ""},
		{"sound mixed plan", []Action{
			{Kind: RemoveInstance, App: "web", Node: "n1"},
			{Kind: SuspendJob, Job: "run"},
			{Kind: StartJob, Job: "pend", Node: "n2", Share: 4000},
			{Kind: ResumeJob, Job: "susp", Node: "n1", Share: 4000},
			{Kind: AddInstance, App: "web", Node: "n2", Share: 2000},
		}, ""},
		{"unknown job", []Action{{Kind: SuspendJob, Job: "ghost"}}, "unknown job"},
		{"unknown node", []Action{{Kind: StartJob, Job: "pend", Node: "n9", Share: 100}}, "unknown node"},
		{"unknown migrate target", []Action{{Kind: MigrateJob, Job: "run", Node: "n9", Share: 100}}, "unknown node"},
		{"unknown app", []Action{{Kind: RemoveInstance, App: "ghost", Node: "n1"}}, "unknown app"},
		{"duplicate job action", []Action{
			{Kind: SuspendJob, Job: "run"},
			{Kind: SetJobShare, Job: "run", Share: 100},
		}, "two actions"},
		{"start a running job", []Action{{Kind: StartJob, Job: "run", Node: "n2", Share: 100}}, "want pending"},
		{"resume a pending job", []Action{{Kind: ResumeJob, Job: "pend", Node: "n2", Share: 100}}, "want suspended"},
		{"suspend a pending job", []Action{{Kind: SuspendJob, Job: "pend"}}, "want running"},
		{"reshare a suspended job", []Action{{Kind: SetJobShare, Job: "susp", Share: 100}}, "want running"},
		{"negative share", []Action{{Kind: SetJobShare, Job: "run", Share: -1}}, "negative share"},
		{"duplicate instance action", []Action{
			{Kind: SetInstanceShare, App: "web", Node: "n1", Share: 100},
			{Kind: RemoveInstance, App: "web", Node: "n1"},
		}, "second action"},
		{"add over existing instance", []Action{{Kind: AddInstance, App: "web", Node: "n1", Share: 100}}, "duplicate instance"},
		{"remove absent instance", []Action{{Kind: RemoveInstance, App: "web", Node: "n2"}}, "no instance"},
		{"reshare absent instance", []Action{{Kind: SetInstanceShare, App: "web", Node: "n2", Share: 100}}, "no instance"},
		{"memory overcommit", []Action{
			// n1 already hosts run (4000 MB) + instance (1000 MB);
			// resuming susp there lands 4000 MB more: 9000 > 8000.
			{Kind: ResumeJob, Job: "susp", Node: "n1", Share: 1000},
		}, "over memory"},
		{"cpu overcommit", []Action{
			{Kind: SetJobShare, Job: "run", Share: 9500},
		}, "over CPU"},
		{"freed memory reused", []Action{
			// Two-phase replay: suspending run releases n1, so resuming
			// susp into the freed space is sound even though the resume
			// is listed first.
			{Kind: ResumeJob, Job: "susp", Node: "n1", Share: 4000},
			{Kind: SuspendJob, Job: "run"},
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := invariantState()
			err := CheckPlan(st, &Plan{Actions: tc.actions})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckPlan: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("CheckPlan: want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckPlan: want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestCheckPlanStrandedJob pins the crash-mid-cycle posture: a running
// job whose node vanished from the snapshot books no live capacity, and
// suspending it is a sound plan.
func TestCheckPlanStrandedJob(t *testing.T) {
	st := invariantState()
	st.Jobs = append(st.Jobs, JobInfo{
		ID: "stranded", State: batch.Running, Node: "gone", Share: 4500,
		Remaining: 1e6, MaxSpeed: 4500, Mem: 4000, Goal: 9000,
	})
	if err := CheckPlan(st, &Plan{Actions: []Action{{Kind: SuspendJob, Job: "stranded"}}}); err != nil {
		t.Fatalf("suspending a stranded job: %v", err)
	}
	if err := CheckPlan(st, &Plan{}); err != nil {
		t.Fatalf("leaving a stranded job in place: %v", err)
	}
}

func TestCheckPlanNil(t *testing.T) {
	if err := CheckPlan(invariantState(), nil); err == nil {
		t.Fatal("nil plan must fail")
	}
}

func TestFreeingFirst(t *testing.T) {
	free := Action{Kind: SuspendJob, Job: "a"}
	place := Action{Kind: StartJob, Job: "b", Node: "n1", Share: 100}
	share := Action{Kind: SetJobShare, Job: "c", Share: 100}
	cases := []struct {
		name    string
		actions []Action
		ok      bool
	}{
		{"empty", nil, true},
		{"frees only", []Action{free, {Kind: RemoveInstance, App: "w", Node: "n1"}}, true},
		{"frees then places", []Action{free, place, share}, true},
		{"free after place", []Action{place, free}, false},
		{"free after share change", []Action{share, free}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := FreeingFirst(tc.actions)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want ordering error, got nil")
			}
		})
	}
}
