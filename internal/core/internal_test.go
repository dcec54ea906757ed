package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// pj builds a PlannedJob with the given speed cap for waterfill tests.
func pj(cap res.CPU) *PlannedJob {
	return &PlannedJob{Info: JobInfo{MaxSpeed: cap}}
}

func TestWaterfillEqualSplitUnderCaps(t *testing.T) {
	jobs := []*PlannedJob{pj(4500), pj(4500), pj(4500)}
	shares := waterfillJobs(jobs, 9000)
	for i, s := range shares {
		if !res.AlmostEqual(s, 3000) {
			t.Errorf("share %d = %v, want 3000", i, s)
		}
	}
}

func TestWaterfillCapsAndRedistributes(t *testing.T) {
	// One small-cap job: its surplus flows to the others.
	jobs := []*PlannedJob{pj(1000), pj(4500), pj(4500)}
	shares := waterfillJobs(jobs, 9000)
	if !res.AlmostEqual(shares[0], 1000) {
		t.Errorf("capped job share %v, want 1000", shares[0])
	}
	if !res.AlmostEqual(shares[1], 4000) || !res.AlmostEqual(shares[2], 4000) {
		t.Errorf("redistribution wrong: %v, %v, want 4000 each", shares[1], shares[2])
	}
}

func TestWaterfillAbundantCapacity(t *testing.T) {
	jobs := []*PlannedJob{pj(4500), pj(4500)}
	shares := waterfillJobs(jobs, 100000)
	for i, s := range shares {
		if !res.AlmostEqual(s, 4500) {
			t.Errorf("share %d = %v, want speed cap", i, s)
		}
	}
}

func TestWaterfillEdgeCases(t *testing.T) {
	if got := waterfillJobs(nil, 1000); len(got) != 0 {
		t.Error("empty jobs produced shares")
	}
	shares := waterfillJobs([]*PlannedJob{pj(4500)}, 0)
	if shares[0] != 0 {
		t.Errorf("zero capacity granted %v", shares[0])
	}
}

// Property: waterfill conserves capacity (never over-allocates) and
// respects every cap.
func TestWaterfillProperty(t *testing.T) {
	f := func(nRaw uint8, capRaw uint32, caps []uint16) bool {
		n := int(nRaw%8) + 1
		capacity := res.CPU(capRaw % 100000)
		jobs := make([]*PlannedJob, n)
		for i := range jobs {
			c := res.CPU(1000)
			if i < len(caps) {
				c = res.CPU(caps[i]%9000) + 1
			}
			jobs[i] = pj(c)
		}
		shares := waterfillJobs(jobs, capacity)
		var sum res.CPU
		for i, s := range shares {
			if s < 0 || s > jobs[i].Info.MaxSpeed*(1+1e-9) {
				return false
			}
			sum += s
		}
		return res.AtMost(sum, capacity)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestJobLessOrdering(t *testing.T) {
	now := 1000.0
	mk := func(id string, goal float64, state batch.State, submitted float64) *PlannedJob {
		pj := &PlannedJob{Info: JobInfo{
			ID: batch.JobID(id), Goal: goal, State: state,
			Remaining: res.Work(4500 * 100), MaxSpeed: 4500, Submitted: submitted,
		}}
		pj.lax = pj.Info.Laxity(now)
		return pj
	}
	// Laxity = (goal - now) - 100.
	urgent := mk("urgent", 1200, batch.Pending, 5)      // laxity 100
	relaxed := mk("relaxed", 9000, batch.Pending, 1)    // laxity 7900
	runningTie := mk("running", 1200, batch.Running, 9) // same laxity as urgent
	earlyTie := mk("early", 1200, batch.Pending, 1)     // same laxity, earlier submit

	jobs := []*PlannedJob{relaxed, urgent, runningTie, earlyTie}
	sort.SliceStable(jobs, func(i, j int) bool { return jobLess(jobs[i], jobs[j]) })

	// Running wins the laxity tie; then earlier submission; relaxed last.
	wantOrder := []string{"running", "early", "urgent", "relaxed"}
	for i, w := range wantOrder {
		if string(jobs[i].Info.ID) != w {
			t.Fatalf("position %d = %v, want %v (full order: %v %v %v %v)",
				i, jobs[i].Info.ID, w,
				jobs[0].Info.ID, jobs[1].Info.ID, jobs[2].Info.ID, jobs[3].Info.ID)
		}
	}
}

func TestLaxity(t *testing.T) {
	j := JobInfo{Remaining: res.Work(4500 * 500), MaxSpeed: 4500, Goal: 2000}
	if got := j.Laxity(1000); math.Abs(got-500) > 1e-9 {
		t.Errorf("laxity = %v, want 500", got)
	}
	// Unreachable goal -> negative laxity.
	if got := j.Laxity(1800); got >= 0 {
		t.Errorf("late job laxity = %v, want negative", got)
	}
}

func TestStateTotals(t *testing.T) {
	st := &State{Nodes: nodes(3)}
	if st.TotalCPU() != 3*18000 {
		t.Errorf("TotalCPU = %v", st.TotalCPU())
	}
	if st.TotalMem() != 3*16000 {
		t.Errorf("TotalMem = %v", st.TotalMem())
	}
}

func TestActionStringsAndCount(t *testing.T) {
	actions := []Action{
		StartJob{Job: "j", Node: "n", Share: 1},
		ResumeJob{Job: "j", Node: "n", Share: 1},
		SuspendJob{Job: "j"},
		MigrateJob{Job: "j", Dst: "n", Share: 1},
		SetJobShare{Job: "j", Share: 1},
		AddInstance{App: "a", Node: "n", Share: 1},
		RemoveInstance{App: "a", Node: "n"},
		SetInstanceShare{App: "a", Node: "n", Share: 1},
	}
	for _, a := range actions {
		if a.String() == "" {
			t.Errorf("%T has empty string form", a)
		}
	}
	p := &Plan{Actions: actions}
	st, rs, su, mi, sh, ia, ir, is := p.CountActions()
	if st != 1 || rs != 1 || su != 1 || mi != 1 || sh != 1 || ia != 1 || ir != 1 || is != 1 {
		t.Errorf("CountActions = %d %d %d %d %d %d %d %d", st, rs, su, mi, sh, ia, ir, is)
	}
}
