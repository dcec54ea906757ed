package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// waterfillJobs divides capacity among jobs, each capped at its target
// ceiling: the job's max speed (a running job may receive more than its
// hypothetical target because only placed jobs can use real CPU).
func waterfillJobs(jobs []*PlannedJob, capacity res.CPU) []res.CPU {
	return waterfillJobsInto(&planScratch{}, jobs, capacity)
}

// TotalMem sums node memory capacity.
func (s *State) TotalMem() res.Memory {
	var sum res.Memory
	for _, n := range s.Nodes {
		sum += n.Mem
	}
	return sum
}

// jobLess reports whether a precedes b in the placement order.
func jobLess(a, b *PlannedJob) bool { return jobCmp(a, b) < 0 }

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
	// Plan.Digest hashes these texts: they must not change.
	cases := []struct {
		a    Action
		want string
	}{
		{Action{Kind: StartJob, Job: "j", Node: "n", Share: 1}, "start job j on n @ 1MHz"},
		{Action{Kind: ResumeJob, Job: "j", Node: "n", Share: 1}, "resume job j on n @ 1MHz"},
		{Action{Kind: SuspendJob, Job: "j"}, "suspend job j"},
		{Action{Kind: MigrateJob, Job: "j", Node: "n", Share: 1}, "migrate job j to n @ 1MHz"},
		{Action{Kind: SetJobShare, Job: "j", Share: 1}, "set job j share 1MHz"},
		{Action{Kind: AddInstance, App: "a", Node: "n", Share: 1}, "add instance of a on n @ 1MHz"},
		{Action{Kind: RemoveInstance, App: "a", Node: "n"}, "remove instance of a from n"},
		{Action{Kind: SetInstanceShare, App: "a", Node: "n", Share: 1}, "set instance of a on n share 1MHz"},
	}
	p := &Plan{}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("kind %d String() = %q, want %q", c.a.Kind, got, c.want)
		}
		p.Actions = append(p.Actions, c.a)
	}
	for k := StartJob; k <= SetInstanceShare; k++ {
		if n := p.Count(k); n != 1 {
			t.Errorf("Count(%d) = %d, want 1", k, n)
		}
		if frees := k == SuspendJob || k == RemoveInstance; (Action{Kind: k}).Frees() != frees {
			t.Errorf("kind %d Frees() = %v", k, !frees)
		}
	}
}

// TestDigestActionLines pins Plan.Digest's action lines, which it
// appends with strconv, to the fmt formatting they replaced: for every
// kind (and an unknown one) at the shares where float formatting could
// differ, each line equals String() and the fmt text, and the digest of
// a plan of all of them equals the one hashed line by line from fmt.
func TestDigestActionLines(t *testing.T) {
	cpu := func(c res.CPU) string {
		if math.Abs(float64(c)) >= 1000 {
			return fmt.Sprintf("%.2fGHz", float64(c)/1000)
		}
		return fmt.Sprintf("%.0fMHz", float64(c))
	}
	format := func(a Action) string {
		switch a.Kind {
		case StartJob:
			return fmt.Sprintf("start job %s on %s @ %s", a.Job, a.Node, cpu(a.Share))
		case ResumeJob:
			return fmt.Sprintf("resume job %s on %s @ %s", a.Job, a.Node, cpu(a.Share))
		case SuspendJob:
			return fmt.Sprintf("suspend job %s", a.Job)
		case MigrateJob:
			return fmt.Sprintf("migrate job %s to %s @ %s", a.Job, a.Node, cpu(a.Share))
		case SetJobShare:
			return fmt.Sprintf("set job %s share %s", a.Job, cpu(a.Share))
		case AddInstance:
			return fmt.Sprintf("add instance of %s on %s @ %s", a.App, a.Node, cpu(a.Share))
		case RemoveInstance:
			return fmt.Sprintf("remove instance of %s from %s", a.App, a.Node)
		case SetInstanceShare:
			return fmt.Sprintf("set instance of %s on %s share %s", a.App, a.Node, cpu(a.Share))
		}
		return fmt.Sprintf("action of kind %d", a.Kind)
	}
	shares := []float64{0, math.Copysign(0, -1), 0.4, 999.5, 1000, 1e21,
		math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	plan := &Plan{HypotheticalJobUtility: 0.25, EqualizedUtility: -1, JobDemand: 4500, JobTarget: 1e-9}
	var want strings.Builder
	for k := ActionKind(0); k <= SetInstanceShare+1; k++ {
		for _, share := range shares {
			a := Action{Kind: k, Job: "j1", App: "web", Node: "n7", Share: res.CPU(share)}
			text := format(a)
			if got := string(a.appendText(nil)); got != text {
				t.Errorf("kind %d share %v: line %q, want %q", k, share, got, text)
			}
			if got := a.String(); got != text {
				t.Errorf("kind %d share %v: String() %q, want %q", k, share, got, text)
			}
			plan.Actions = append(plan.Actions, a)
			want.WriteString(text + "\n")
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "actions %d\n%s", len(plan.Actions), want.String())
	for _, v := range []float64{0.25, -1, 4500, 1e-9} {
		fmt.Fprintf(h, "%x\n", math.Float64bits(v))
	}
	h.Write([]byte("classes 0\nprediction 0\ndemand 0\ntarget 0\n"))
	if got, want := plan.Digest(), hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Digest() = %s, want %s", got, want)
	}
}
