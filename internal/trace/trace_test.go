package trace

import (
	"math"
	"strings"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/sim"
	"slaplace/internal/vm"
	"slaplace/internal/workload/batch"
)

func baseClass() batch.Class {
	return batch.Class{
		Name:        "batch",
		Work:        res.Work(4500 * 1000),
		MaxSpeed:    4500,
		Mem:         5000,
		GoalStretch: 3,
	}
}

func sampleRecords() []JobRecord {
	return []JobRecord{
		{ID: "a", Submit: 100, Work: 4500 * 1000, MaxSpeed: 4500, Mem: 5000, Goal: 4000, Class: "batch"},
		{ID: "b", Submit: 50, Work: 9000 * 500, MaxSpeed: 4500, Mem: 4000, Goal: 0, Class: "gold"},
		{ID: "c", Submit: 300, Work: 4500 * 2000, MaxSpeed: 2250, Mem: 6000, Goal: 9000, Class: "batch"},
	}
}

// TestJobRoundTrip reads records back from their CSV form, field for
// field, in file order.
func TestJobRoundTrip(t *testing.T) {
	got, err := ReadJobs(strings.NewReader("id,submit,work,maxspeed,mem,goal,class\n" +
		"b,50,4.5e6,4500,4000,0,gold\n" +
		"a,100,4500000,4500,5000,4000,batch\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	want := sampleRecords()
	if got[0] != want[1] || got[1] != want[0] {
		t.Errorf("records %+v, want %+v and %+v", got, want[1], want[0])
	}
}

func TestReadJobsRejectsGarbage(t *testing.T) {
	cases := []string{
		"",      // no header
		"x,y\n", // wrong header
		"id,submit,work,maxspeed,mem,goal,class\na,-5,1,1,1,0,c\n",  // negative submit
		"id,submit,work,maxspeed,mem,goal,class\na,1,zzz,1,1,0,c\n", // bad float
		"id,submit,work,maxspeed,mem,goal,class\n,1,1,1,1,0,c\n",    // empty id
	}
	for i, in := range cases {
		if _, err := ReadJobs(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReplayerSubmitsAtExactTimes(t *testing.T) {
	eng := sim.New()
	cl := cluster.Uniform(2, 18000, 16000)
	mgr := vm.NewManager(eng, cl, vm.Costs{})
	rt := batch.NewRuntime(eng, mgr)

	rep, err := NewReplayer(rt, eng, sampleRecords(), baseClass())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count() != 3 {
		t.Errorf("Count = %d", rep.Count())
	}
	rep.Start()
	eng.RunUntil(1000)
	jobs := rt.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs", len(jobs))
	}
	// Submission order by time: b (50), a (100), c (300).
	if jobs[0].ID() != "b" || jobs[0].Submitted() != 50 {
		t.Errorf("first job %v at %v", jobs[0].ID(), jobs[0].Submitted())
	}
	// Explicit goal respected; zero goal derived from base stretch.
	a, _ := rt.Job("a")
	if a.Goal() != 4000 {
		t.Errorf("explicit goal %v", a.Goal())
	}
	b, _ := rt.Job("b")
	wantGoal := 50 + 3*res.Work(9000*500).Seconds(4500)
	if math.Abs(b.Goal()-wantGoal) > 1e-9 {
		t.Errorf("derived goal %v, want %v", b.Goal(), wantGoal)
	}
	// Per-record class name propagates.
	if b.Class().Name != "gold" {
		t.Errorf("class %q", b.Class().Name)
	}
}

func TestReplayerRejectsDuplicates(t *testing.T) {
	eng := sim.New()
	cl := cluster.Uniform(1, 18000, 16000)
	mgr := vm.NewManager(eng, cl, vm.Costs{})
	rt := batch.NewRuntime(eng, mgr)
	recs := []JobRecord{
		{ID: "dup", Submit: 1, Work: 1, MaxSpeed: 1, Mem: 1},
		{ID: "dup", Submit: 2, Work: 1, MaxSpeed: 1, Mem: 1},
	}
	if _, err := NewReplayer(rt, eng, recs, baseClass()); err == nil {
		t.Error("duplicate IDs accepted")
	}
}
