package api

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/utility"
	"slaplace/internal/workload/batch"
)

// sampleState builds a planner snapshot exercising every wire-able
// field: all three job states, a migrating job, custom utility
// functions, and an overloaded app with infinite measured RT.
func sampleState(t *testing.T) *core.State {
	t.Helper()
	model, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := utility.NewPiecewise([]utility.Point{{P: 0, U: 0}, {P: 0.5, U: 0.9}, {P: 1, U: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return &core.State{
		Now: 1234.5,
		Nodes: []core.NodeInfo{
			{ID: "n1", CPU: 18000, Mem: 16000},
			{ID: "n2", CPU: 9000, Mem: 8000},
		},
		Jobs: []core.JobInfo{
			{ID: "j1", Class: "gold", State: batch.Running, Node: "n1", Share: 4500,
				Remaining: 1e6, MaxSpeed: 4500, Mem: 5000, Goal: 9000, Submitted: 10},
			{ID: "j2", Class: "silver", State: batch.Pending,
				Remaining: 2e6, MaxSpeed: 4500, Mem: 5000, Goal: 20000, Submitted: 400,
				Fn: utility.Sigmoid{K: 4}},
			{ID: "j3", State: batch.Suspended,
				Remaining: 3e5, MaxSpeed: 2000, Mem: 2500, Goal: 4000, Submitted: 0,
				Fn: pw},
			{ID: "j4", State: batch.Running, Node: "n2", Share: 2000, Migrating: true,
				Remaining: 5e5, MaxSpeed: 2000, Mem: 2500, Goal: 6000, Submitted: 2,
				Fn: utility.Linear{Floor: -0.5}},
		},
		Apps: []core.AppInfo{
			{ID: "web", Lambda: 65, RTGoal: 3, Model: model,
				InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: 1, MaxInstances: 4,
				Instances:  map[cluster.NodeID]res.CPU{"n1": 1500, "n2": 800},
				MeasuredRT: 2.25},
			{ID: "overloaded", Lambda: 10, RTGoal: 1, Model: queueing.MM1{DemandMHzs: 500},
				Fn:          utility.Sigmoid{K: 2},
				InstanceMem: 500, MaxPerInstance: 9000,
				MeasuredRT: math.Inf(1)},
		},
	}
}

// TestStateRoundTrip: CoreState ∘ FromCoreState (with a JSON encode /
// decode in between) must reproduce the snapshot exactly — same
// fields, same bits — so wire-fed planning is indistinguishable from
// in-process planning.
func TestStateRoundTrip(t *testing.T) {
	st := sampleState(t)
	snap, err := FromCoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := decoded.CoreState()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Now != st.Now {
		t.Errorf("now %v != %v", rt.Now, st.Now)
	}
	if !reflect.DeepEqual(rt.Nodes, st.Nodes) {
		t.Errorf("nodes diverged:\n%+v\n%+v", rt.Nodes, st.Nodes)
	}
	if !reflect.DeepEqual(rt.Jobs, st.Jobs) {
		t.Errorf("jobs diverged:\n%+v\n%+v", rt.Jobs, st.Jobs)
	}
	// Apps contain an Inf and interface values; compare piecewise.
	if len(rt.Apps) != len(st.Apps) {
		t.Fatalf("app count %d != %d", len(rt.Apps), len(st.Apps))
	}
	for i := range st.Apps {
		want, got := st.Apps[i], rt.Apps[i]
		if got.ID != want.ID || got.Lambda != want.Lambda || got.RTGoal != want.RTGoal ||
			got.InstanceMem != want.InstanceMem || got.MaxPerInstance != want.MaxPerInstance ||
			got.MinInstances != want.MinInstances || got.MaxInstances != want.MaxInstances {
			t.Errorf("app %s scalar fields diverged:\n%+v\n%+v", want.ID, got, want)
		}
		if !reflect.DeepEqual(got.Model, want.Model) || !reflect.DeepEqual(got.Fn, want.Fn) {
			t.Errorf("app %s model/fn diverged", want.ID)
		}
		if len(got.Instances) != len(want.Instances) ||
			(len(want.Instances) > 0 && !reflect.DeepEqual(got.Instances, want.Instances)) {
			t.Errorf("app %s instances diverged", want.ID)
		}
		if got.MeasuredRT != want.MeasuredRT && !(math.IsInf(got.MeasuredRT, 1) && math.IsInf(want.MeasuredRT, 1)) {
			t.Errorf("app %s measured RT %v != %v", want.ID, got.MeasuredRT, want.MeasuredRT)
		}
	}

	// The currency that matters: the planner cannot tell the two
	// snapshots apart — byte-identical plans.
	want := core.New(core.DefaultConfig()).Plan(st).Digest()
	got := core.New(core.DefaultConfig()).Plan(rt).Digest()
	if got != want {
		t.Errorf("plan digests diverge after wire round trip")
	}
}

// TestSnapshotJSONStability: encode → decode → encode is
// byte-identical (canonical form), the round-trip idempotence the
// fuzz target also checks.
func TestSnapshotJSONStability(t *testing.T) {
	st := sampleState(t)
	snap, err := FromCoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := EncodeSnapshot(&a, snap); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshot(&b, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("snapshot JSON not stable across a round trip:\n%s\n%s", a.Bytes(), b.Bytes())
	}
}

// TestUnknownFieldTolerance: documents from a newer same-major peer
// carry fields this build does not know; decoding must succeed.
func TestUnknownFieldTolerance(t *testing.T) {
	doc := `{
		"schemaVersion": 1,
		"now": 100,
		"futureTopLevel": {"a": 1},
		"nodes": [{"id": "n1", "cpuMHz": 1000, "memMB": 1000, "futureNodeField": true}],
		"jobs": [{"id": "j1", "state": "pending", "remainingMHzs": 10, "maxSpeedMHz": 10,
			"memMB": 1, "goalSec": 5, "submittedSec": 0, "futureJobField": "x"}]
	}`
	snap, err := DecodeSnapshot(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("unknown fields rejected: %v", err)
	}
	if len(snap.Nodes) != 1 || len(snap.Jobs) != 1 {
		t.Errorf("decoded shape wrong: %+v", snap)
	}
}

func TestVersionChecks(t *testing.T) {
	if err := CheckVersion(SchemaVersion); err != nil {
		t.Errorf("own version rejected: %v", err)
	}
	if err := CheckVersion(0); err == nil {
		t.Error("missing version accepted")
	}
	if err := CheckVersion(SchemaVersion + 1); err == nil {
		t.Error("future version accepted")
	}
	doc := `{"schemaVersion": 99, "now": 0, "nodes": [{"id":"n","cpuMHz":1,"memMB":1}]}`
	if _, err := DecodeSnapshot(strings.NewReader(doc)); err == nil {
		t.Error("future-version snapshot accepted")
	}
}

func TestFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 1.5, -2.25, 1e-300, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), 0.1}
	for _, v := range cases {
		data, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got Float
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if math.IsNaN(v) {
			if !math.IsNaN(float64(got)) {
				t.Errorf("NaN round-tripped to %v", float64(got))
			}
			continue
		}
		if float64(got) != v {
			t.Errorf("%v round-tripped to %v (wire %s)", v, float64(got), data)
		}
	}
	// Quoted finite numbers are accepted too.
	var f Float
	if err := json.Unmarshal([]byte(`"2.5"`), &f); err != nil || f != 2.5 {
		t.Errorf("quoted number: %v %v", f, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &f); err == nil {
		t.Error("bogus float string accepted")
	}
}

// TestActionRoundTrip: every planner action kind survives the wire.
func TestActionRoundTrip(t *testing.T) {
	actions := []core.Action{
		{Kind: core.StartJob, Job: "j", Node: "n", Share: 100},
		{Kind: core.ResumeJob, Job: "j", Node: "n", Share: 200},
		{Kind: core.SuspendJob, Job: "j"},
		{Kind: core.MigrateJob, Job: "j", Node: "n2", Share: 300},
		{Kind: core.SetJobShare, Job: "j", Share: 400},
		{Kind: core.AddInstance, App: "a", Node: "n", Share: 500},
		{Kind: core.RemoveInstance, App: "a", Node: "n"},
		{Kind: core.SetInstanceShare, App: "a", Node: "n", Share: 600},
	}
	for _, act := range actions {
		wire, err := FromCoreAction(act)
		if err != nil {
			t.Fatalf("%v: %v", act, err)
		}
		back, err := wire.CoreAction()
		if err != nil {
			t.Fatalf("%v: %v", wire, err)
		}
		if !reflect.DeepEqual(back, act) {
			t.Errorf("action round trip: %#v -> %#v", act, back)
		}
	}
	if _, err := (Action{Type: "nonsense"}).CoreAction(); err == nil {
		t.Error("unknown wire action accepted")
	}
}

// TestActionKindsAreWireCodes: core.ActionKind k is binary action
// code k, whose wire name is actionTypes[k-1], and an action of every
// kind converts to the wire and back unchanged.
func TestActionKindsAreWireCodes(t *testing.T) {
	want := []struct {
		kind core.ActionKind
		name string
	}{
		{core.StartJob, ActionStartJob},
		{core.ResumeJob, ActionResumeJob},
		{core.SuspendJob, ActionSuspendJob},
		{core.MigrateJob, ActionMigrateJob},
		{core.SetJobShare, ActionSetJobShare},
		{core.AddInstance, ActionAddInstance},
		{core.RemoveInstance, ActionRemoveInstance},
		{core.SetInstanceShare, ActionSetInstanceShare},
	}
	if len(actionTypes) != len(want) {
		t.Fatalf("%d wire action types, %d kinds", len(actionTypes), len(want))
	}
	for i, w := range want {
		if int(w.kind) != i+1 || actionTypes[w.kind-1] != w.name {
			t.Errorf("kind %d: code %d is %q, want %q", w.kind, i+1, actionTypes[i], w.name)
		}
		a := core.Action{Kind: w.kind, Job: "j", App: "a", Node: "n", Share: 100}
		wire, err := FromCoreAction(a)
		if err != nil || wire.Type != w.name {
			t.Fatalf("kind %d: wire %+v, %v", w.kind, wire, err)
		}
		if back, err := wire.CoreAction(); err != nil || back != a {
			t.Errorf("kind %d: round trip %+v, %v", w.kind, back, err)
		}
	}
	for _, k := range []core.ActionKind{0, core.SetInstanceShare + 1} {
		if _, err := FromCoreAction(core.Action{Kind: k}); err == nil {
			t.Errorf("kind %d has a wire form", k)
		}
	}
}

func TestSnapshotValidateRejects(t *testing.T) {
	good := func() *Snapshot {
		return &Snapshot{
			SchemaVersion: 1, Now: 0,
			Nodes: []Node{{ID: "n1", CPUMHz: 1000, MemMB: 1000}},
			Jobs: []Job{{ID: "j1", State: JobRunning, Node: "n1",
				RemainingMHzs: 10, MaxSpeedMHz: 10, MemMB: 1, GoalSec: 5}},
			Apps: []App{{ID: "a1", Lambda: 1, RTGoalSec: 1,
				Model: Model{Type: ModelMG1PS, DemandMHzs: 10, CoreSpeedMHz: 100}}},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	mutations := map[string]func(*Snapshot){
		"no nodes":          func(s *Snapshot) { s.Nodes = nil },
		"dup node":          func(s *Snapshot) { s.Nodes = append(s.Nodes, s.Nodes[0]) },
		"bad node cpu":      func(s *Snapshot) { s.Nodes[0].CPUMHz = -1 },
		"nan now":           func(s *Snapshot) { s.Now = math.NaN() },
		"dup job":           func(s *Snapshot) { s.Jobs = append(s.Jobs, s.Jobs[0]) },
		"bad job state":     func(s *Snapshot) { s.Jobs[0].State = "zombie" },
		"running w/o node":  func(s *Snapshot) { s.Jobs[0].Node = "" },
		"pending with node": func(s *Snapshot) { s.Jobs[0].State = JobPending },
		"zero remaining":    func(s *Snapshot) { s.Jobs[0].RemainingMHzs = 0 },
		"dup app":           func(s *Snapshot) { s.Apps = append(s.Apps, s.Apps[0]) },
		"bad model":         func(s *Snapshot) { s.Apps[0].Model.Type = "quantum" },
		"negative lambda":   func(s *Snapshot) { s.Apps[0].Lambda = -1 },
		"bad utility":       func(s *Snapshot) { s.Apps[0].Utility = &UtilityFn{Type: FnSigmoid, K: -1} },
	}
	for name, mutate := range mutations {
		s := good()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSnapshotValidateEmptiesIDSet: Validate deletes the IDs it put
// into its pooled set on every return path, so the set goes back to the
// pool empty whether the snapshot passed or failed at any check.
func TestSnapshotValidateEmptiesIDSet(t *testing.T) {
	good := func() *Snapshot {
		return &Snapshot{
			SchemaVersion: 1,
			Nodes:         []Node{{ID: "n1", CPUMHz: 1000, MemMB: 1000}, {ID: "n2", CPUMHz: 1000, MemMB: 1000}},
			Jobs: []Job{
				{ID: "j1", State: JobPending, RemainingMHzs: 10, MaxSpeedMHz: 10, MemMB: 1, GoalSec: 5},
				{ID: "j2", State: JobPending, RemainingMHzs: 10, MaxSpeedMHz: 10, MemMB: 1, GoalSec: 5},
			},
			Apps: []App{
				{ID: "a1", Lambda: 1, RTGoalSec: 1, Model: Model{Type: ModelMG1PS, DemandMHzs: 10, CoreSpeedMHz: 100}},
				{ID: "a2", Lambda: 1, RTGoalSec: 1, Model: Model{Type: ModelMG1PS, DemandMHzs: 10, CoreSpeedMHz: 100}},
			},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"valid", func(*Snapshot) {}},
		{"empty node id", func(s *Snapshot) { s.Nodes[1].ID = "" }},
		{"dup node", func(s *Snapshot) { s.Nodes[1].ID = "n1" }},
		{"bad node cpu", func(s *Snapshot) { s.Nodes[1].CPUMHz = 0 }},
		{"bad node mem", func(s *Snapshot) { s.Nodes[1].MemMB = 0 }},
		{"dup job", func(s *Snapshot) { s.Jobs[1].ID = "j1" }},
		{"bad job", func(s *Snapshot) { s.Jobs[1].RemainingMHzs = 0 }},
		{"dup app", func(s *Snapshot) { s.Apps[1].ID = "a1" }},
		{"bad app", func(s *Snapshot) { s.Apps[1].Lambda = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := good()
			tc.mutate(s)
			if err := s.Validate(); (err == nil) != (tc.name == "valid") {
				t.Fatalf("Validate: %v", err)
			}
			// The pool may drop a set (it does at random under -race),
			// so look until Validate's set comes back.
			for range 100 {
				if seen, _ := idSets.Get().(map[string]struct{}); seen != nil {
					if len(seen) != 0 {
						t.Fatalf("ID set went back to the pool holding %v", seen)
					}
					return
				}
				s.Validate()
			}
			t.Fatal("Validate never returned its ID set to the pool")
		})
	}
}

// TestPlanFromCore: the wire plan's placement reflects the enacted
// actions and Diff reconstructs deltas between consecutive plans.
func TestPlanFromCore(t *testing.T) {
	st := sampleState(t)
	plan := core.New(core.DefaultConfig()).Plan(st)
	wire, err := FromCorePlan(st, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire.Placement.Jobs) != len(st.Jobs) {
		t.Fatalf("placement has %d jobs, want %d", len(wire.Placement.Jobs), len(st.Jobs))
	}
	for i := 1; i < len(wire.Placement.Jobs); i++ {
		if wire.Placement.Jobs[i-1].ID >= wire.Placement.Jobs[i].ID {
			t.Fatalf("job placement not ID-sorted")
		}
	}
	// A plan diffed against itself is empty.
	if d := wire.Diff(wire); len(d) != 0 {
		t.Errorf("self-diff not empty: %v", d)
	}
	// Diff against nil bootstraps every running job and instance.
	boot := wire.Diff(nil)
	running := 0
	for _, jp := range wire.Placement.Jobs {
		if jp.State == JobRunning {
			running++
		}
	}
	instances := 0
	for _, ap := range wire.Placement.Apps {
		instances += len(ap.Instances)
	}
	starts, adds := 0, 0
	for _, a := range boot {
		switch a.Type {
		case ActionStartJob:
			starts++
		case ActionAddInstance:
			adds++
		}
	}
	if starts != running || adds != instances {
		t.Errorf("bootstrap diff: %d starts (want %d), %d adds (want %d)",
			starts, running, adds, instances)
	}
}

func TestDiffTransitions(t *testing.T) {
	prev := &Plan{Placement: Placement{
		Jobs: []JobPlacement{
			{ID: "keep", State: JobRunning, Node: "n1", ShareMHz: 100},
			{ID: "mig", State: JobRunning, Node: "n1", ShareMHz: 100},
			{ID: "susp", State: JobRunning, Node: "n2", ShareMHz: 50},
			{ID: "res", State: JobSuspended},
			{ID: "share", State: JobRunning, Node: "n2", ShareMHz: 10},
			{ID: "done", State: JobRunning, Node: "n3", ShareMHz: 10},
		},
		Apps: []AppPlacement{
			{ID: "web", Instances: []Instance{{Node: "n1", ShareMHz: 5}, {Node: "n2", ShareMHz: 6}}},
			{ID: "gone", Instances: []Instance{{Node: "n3", ShareMHz: 7}}},
		},
	}}
	next := &Plan{Placement: Placement{
		Jobs: []JobPlacement{
			{ID: "keep", State: JobRunning, Node: "n1", ShareMHz: 100},
			{ID: "mig", State: JobRunning, Node: "n2", ShareMHz: 100},
			{ID: "susp", State: JobSuspended},
			{ID: "res", State: JobRunning, Node: "n1", ShareMHz: 80},
			{ID: "share", State: JobRunning, Node: "n2", ShareMHz: 20},
			{ID: "new", State: JobRunning, Node: "n3", ShareMHz: 30},
		},
		Apps: []AppPlacement{
			{ID: "web", Instances: []Instance{{Node: "n1", ShareMHz: 5}, {Node: "n3", ShareMHz: 9}}},
		},
	}}
	got := next.Diff(prev)
	want := []Action{
		{Type: ActionSuspendJob, Job: "susp"},
		{Type: ActionRemoveInstance, App: "web", Node: "n2"},
		{Type: ActionRemoveInstance, App: "gone", Node: "n3"},
		{Type: ActionMigrateJob, Job: "mig", Node: "n2", ShareMHz: 100},
		{Type: ActionResumeJob, Job: "res", Node: "n1", ShareMHz: 80},
		{Type: ActionStartJob, Job: "new", Node: "n3", ShareMHz: 30},
		{Type: ActionAddInstance, App: "web", Node: "n3", ShareMHz: 9},
		{Type: ActionSetJobShare, Job: "share", ShareMHz: 20},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diff:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotDeltaApply(t *testing.T) {
	st := sampleState(t)
	d := &SnapshotDelta{
		BaseCycle: 0,
		Now:       2000,
		UpsertJobs: []Job{
			// j2 drifts in place.
			{ID: "j2", Class: "silver", State: JobPending, RemainingMHzs: 1.5e6,
				MaxSpeedMHz: 4500, MemMB: 5000, GoalSec: 20000, SubmittedSec: 400},
			// j9 is new.
			{ID: "j9", State: JobPending, RemainingMHzs: 1e5, MaxSpeedMHz: 1000,
				MemMB: 100, GoalSec: 30000, SubmittedSec: 1999},
		},
		RemoveJobs: []string{"j3"},
		UpsertApps: []App{{ID: "web", Lambda: 80, RTGoalSec: 3,
			Model:         Model{Type: ModelMG1PS, DemandMHzs: 1350, CoreSpeedMHz: 4500},
			InstanceMemMB: 1000, MaxPerInstanceMHz: 18000, MinInstances: 1, MaxInstances: 4,
			Instances: []Instance{{Node: "n1", ShareMHz: 1500}, {Node: "n2", ShareMHz: 800}}}},
		RemoveApps: []string{"overloaded"},
	}
	got, err := d.ApplyTo(st)
	if err != nil {
		t.Fatal(err)
	}
	if got.Now != 2000 {
		t.Errorf("now %v", got.Now)
	}
	ids := make([]string, 0, len(got.Jobs))
	for _, j := range got.Jobs {
		ids = append(ids, string(j.ID))
	}
	if want := []string{"j1", "j2", "j4", "j9"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("job order %v, want %v", ids, want)
	}
	if got.Jobs[1].Remaining != 1.5e6 {
		t.Errorf("upserted job not replaced: %+v", got.Jobs[1])
	}
	if len(got.Apps) != 1 || got.Apps[0].ID != "web" || got.Apps[0].Lambda != 80 {
		t.Errorf("apps after delta: %+v", got.Apps)
	}
	// The base state is untouched.
	if len(st.Jobs) != 4 || st.Jobs[1].Remaining != 2e6 || len(st.Apps) != 2 {
		t.Errorf("base state mutated")
	}
	// Invalid upserts are rejected.
	bad := &SnapshotDelta{Now: 2100, UpsertJobs: []Job{{ID: "jx", State: "zombie",
		RemainingMHzs: 1, MaxSpeedMHz: 1, GoalSec: 1}}}
	if _, err := bad.ApplyTo(st); err == nil {
		t.Error("invalid upsert accepted")
	}
	// Duplicate IDs within a delta are rejected — they would build a
	// state that full-snapshot validation never allows.
	job := Job{ID: "jx", State: JobPending, RemainingMHzs: 1, MaxSpeedMHz: 1,
		MemMB: 1, GoalSec: 1}
	dupJobs := &SnapshotDelta{Now: 2100, UpsertJobs: []Job{job, job}}
	if _, err := dupJobs.ApplyTo(st); err == nil {
		t.Error("duplicate job upserts accepted")
	}
	appUp := App{ID: "ax", Lambda: 1, RTGoalSec: 1,
		Model: Model{Type: ModelMM1, DemandMHzs: 1}}
	dupApps := &SnapshotDelta{Now: 2100, UpsertApps: []App{appUp, appUp}}
	if _, err := dupApps.ApplyTo(st); err == nil {
		t.Error("duplicate app upserts accepted")
	}
	node := Node{ID: "nx", CPUMHz: 1, MemMB: 1}
	dupNodes := &SnapshotDelta{Now: 2100, Nodes: []Node{node, node}}
	if _, err := dupNodes.ApplyTo(st); err == nil {
		t.Error("duplicate delta nodes accepted")
	}
	// So is an empty node list: a full snapshot must have nodes.
	noNodes := &SnapshotDelta{Now: 2100, Nodes: []Node{}}
	if _, err := noNodes.ApplyTo(st); err == nil {
		t.Error("delta with an empty node list accepted")
	}
}
