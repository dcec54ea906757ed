package experiments

import (
	"math"
	"strings"
	"testing"

	"slaplace/internal/baseline"
	"slaplace/internal/core"
	"slaplace/internal/metrics"
)

// minOver returns the minimum of a series over [t0, t1] (+Inf if empty).
func minOver(rec *metrics.Recorder, name string, t0, t1 float64) float64 {
	min := math.Inf(1)
	for _, p := range rec.Series(name).Window(t0, t1) {
		if p.V < min {
			min = p.V
		}
	}
	return min
}

func TestScenarioValidation(t *testing.T) {
	good := QuickScenario(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	mutations := []func(*Scenario){
		func(s *Scenario) { s.Name = "" },
		func(s *Scenario) { s.Horizon = 0 },
		func(s *Scenario) { s.Horizon = -5 },
		func(s *Scenario) { s.Horizon = math.NaN() },
		func(s *Scenario) { s.Horizon = math.Inf(1) },
		func(s *Scenario) { s.Horizon = math.Inf(-1) },
		func(s *Scenario) { s.Nodes = 0 },
		func(s *Scenario) { s.NodeCPU = 0 },
		func(s *Scenario) { s.NodeMem = 0 },
		func(s *Scenario) { s.Controller = nil },
		func(s *Scenario) { s.Loop.CyclePeriod = 0 },
		func(s *Scenario) { s.Jobs[0].Class.Work = 0 },
		func(s *Scenario) { s.Apps[0].RTGoal = 0 },
	}
	for i, mutate := range mutations {
		sc := QuickScenario(1)
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestQuickScenarioCompletes(t *testing.T) {
	r, err := Run(QuickScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	if r.JobStats.Completed < 10 {
		t.Errorf("completed %d jobs, want most of the 20+2", r.JobStats.Completed)
	}
	if r.FailedActions != 0 {
		t.Errorf("failed actions: %d", r.FailedActions)
	}
	if r.Cycles == 0 || r.EventsFired == 0 {
		t.Error("run did not execute")
	}
	if _, ok := r.ClassStats["batch"]; !ok {
		t.Error("missing class stats")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a, err := Run(QuickScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(QuickScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	sa := a.Recorder.Series("jobs/hypoUtility").Points()
	sb := b.Recorder.Series("jobs/hypoUtility").Points()
	if len(sa) != len(sb) {
		t.Fatalf("series lengths differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
	if a.EventsFired != b.EventsFired {
		t.Errorf("event counts differ: %d vs %d", a.EventsFired, b.EventsFired)
	}
	c, err := Run(QuickScenario(6))
	if err != nil {
		t.Fatal(err)
	}
	if c.EventsFired == a.EventsFired && c.JobStats.Completed == a.JobStats.Completed &&
		c.Submitted == a.Submitted {
		t.Log("different seeds produced identical aggregate outcomes (possible but suspicious)")
	}
}

// TestPaperScenarioShape is the E1–E3 acceptance test: the qualitative
// shape of the paper's Figures 1 and 2 must hold.
func TestPaperScenarioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper run")
	}
	r, err := Run(PaperScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	rec := r.Recorder
	webU := rec.Series("trans/web/utility")
	jobU := rec.Series("jobs/hypoUtility")

	// (1) Early: web healthy near its cap; jobs unconstrained near 1.
	if got := webU.MeanOver(1200, 6000); got < 0.8 {
		t.Errorf("early web utility %v, want > 0.8", got)
	}
	if got := jobU.MeanOver(1200, 6000); got < 0.8 {
		t.Errorf("early job utility %v, want > 0.8", got)
	}

	// (2) Contention: both utilities decline materially mid-run.
	webTrough := minOver(rec, "trans/web/utility", 30000, 66000)
	jobTrough := minOver(rec, "jobs/hypoUtility", 30000, 66000)
	if webTrough > 0.7 {
		t.Errorf("web trough %v, want < 0.7 (visible contention)", webTrough)
	}
	if jobTrough > 0.6 {
		t.Errorf("job trough %v, want < 0.6", jobTrough)
	}

	// (3) Equalization: once contention holds, the two utilities track
	// each other (the paper's headline result). Compare cycle-by-cycle
	// mean absolute gap over the contended window.
	var gap float64
	var n int
	for _, p := range webU.Window(25000, 55000) {
		if jv, ok := jobU.ValueAt(p.T); ok {
			gap += math.Abs(p.V - jv)
			n++
		}
	}
	if n == 0 {
		t.Fatal("no contended samples")
	}
	gap /= float64(n)
	if gap > 0.15 {
		t.Errorf("mean utility gap in contention %v, want < 0.15", gap)
	}

	// (4) Recovery after the arrival slowdown at 60000 s.
	endWeb := webU.MeanOver(66000, 72000)
	if endWeb < webTrough+0.03 {
		t.Errorf("no recovery: end web utility %v vs trough %v", endWeb, webTrough)
	}

	// (5) Figure 2 shapes: transactional demand constant; job demand
	// grows past it; allocations sum to ≈ capacity under contention;
	// the capacity split is uneven while utilities are equal.
	// The demand is driven by the *monitored* arrival rate, so it
	// jitters around the true constant level — but must stay near it.
	demand := rec.Series("trans/web/demand")
	demandMean := demand.MeanOver(1200, 72000)
	for _, p := range demand.Window(1200, 72000) {
		if math.Abs(p.V-demandMean) > 0.10*demandMean {
			t.Errorf("transactional demand drifted: %v vs mean %v", p.V, demandMean)
			break
		}
	}
	jobDemandPeak := 0.0
	for _, p := range rec.Series("jobs/demand").Points() {
		if p.V > jobDemandPeak {
			jobDemandPeak = p.V
		}
	}
	if jobDemandPeak < 400000 {
		t.Errorf("job demand peak %v, want > 400000 (crowding)", jobDemandPeak)
	}
	capacity := float64(PaperNodes) * float64(PaperNodeCPU)
	for _, tm := range []float64{42000, 48000, 54000, 60000} {
		wa, _ := rec.Series("trans/web/alloc").ValueAt(tm)
		ja, _ := rec.Series("jobs/alloc").ValueAt(tm)
		if wa+ja > capacity*1.000001 {
			t.Errorf("allocations at %v exceed capacity: %v", tm, wa+ja)
		}
		if wa+ja < capacity*0.95 {
			t.Errorf("capacity underused at %v during contention: %v of %v", tm, wa+ja, capacity)
		}
		if math.Abs(wa-ja) < 0.2*capacity*0.25 {
			// The split should be clearly uneven (jobs get ~3x web here).
			t.Errorf("capacity split at %v suspiciously even: web %v vs jobs %v", tm, wa, ja)
		}
	}

	// (6) Operational sanity.
	if r.FailedActions > 5 {
		t.Errorf("failed actions: %d", r.FailedActions)
	}
	if r.JobStats.Completed < 100 {
		t.Errorf("completed %d jobs", r.JobStats.Completed)
	}
	if r.VMCounters.Suspends == 0 {
		t.Error("no suspensions — the headline mechanism never fired")
	}
}

// TestDiffServDifferentiation is E4: tight-goal (gold) jobs must finish
// with materially lower stretch than loose-goal (silver) jobs.
func TestDiffServDifferentiation(t *testing.T) {
	if testing.Short() {
		t.Skip("full diffserv run")
	}
	r, err := Run(DiffServScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	gold, okG := r.ClassStats["gold"]
	silver, okS := r.ClassStats["silver"]
	if !okG || !okS {
		t.Fatalf("missing class stats: %+v", r.ClassStats)
	}
	if gold.Completed < 10 || silver.Completed < 10 {
		t.Fatalf("too few completions: gold %d silver %d", gold.Completed, silver.Completed)
	}
	if gold.MeanStretch >= silver.MeanStretch {
		t.Errorf("no differentiation: gold stretch %v >= silver %v",
			gold.MeanStretch, silver.MeanStretch)
	}
	if gold.GoalViolations > gold.Completed/10 {
		t.Errorf("gold violations %d of %d", gold.GoalViolations, gold.Completed)
	}
}

// TestBaselineComparison is E5: the utility-driven controller must beat
// every baseline on the max-min utility objective.
func TestBaselineComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("five full runs")
	}
	minUtility := func(r *Result) float64 {
		w := minOver(r.Recorder, "trans/web/utility", 1200, 36000)
		j := minOver(r.Recorder, "jobs/hypoUtility", 1200, 36000)
		return math.Min(w, j)
	}
	coreRes, err := Run(BaselineScenario(42, core.New(core.DefaultConfig())))
	if err != nil {
		t.Fatal(err)
	}
	coreMin := minUtility(coreRes)
	for _, ctrl := range []core.Controller{
		baseline.FCFS{}, baseline.EDF{}, baseline.FairShare{},
		baseline.Static{BatchFraction: 0.6},
	} {
		r, err := Run(BaselineScenario(42, ctrl))
		if err != nil {
			t.Fatalf("%s: %v", ctrl.Name(), err)
		}
		if bm := minUtility(r); coreMin <= bm+0.05 {
			t.Errorf("core min-utility %v does not beat %s (%v)", coreMin, ctrl.Name(), bm)
		}
		if r.FailedActions > 0 {
			t.Errorf("%s: %d failed actions", ctrl.Name(), r.FailedActions)
		}
	}
}

// TestChurnAblation is E7: churn-awareness eliminates nearly all
// migrations at equal-or-better workload outcomes.
func TestChurnAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	aware, err := Run(ChurnScenario(42, true))
	if err != nil {
		t.Fatal(err)
	}
	oblivious, err := Run(ChurnScenario(42, false))
	if err != nil {
		t.Fatal(err)
	}
	if aware.VMCounters.Migrations*5 >= oblivious.VMCounters.Migrations {
		t.Errorf("churn-aware migrations %d not ≥5x fewer than oblivious %d",
			aware.VMCounters.Migrations, oblivious.VMCounters.Migrations)
	}
	au := aware.ClassStats["batch"].MeanCompletionUtility
	ou := oblivious.ClassStats["batch"].MeanCompletionUtility
	if au < ou-0.02 {
		t.Errorf("churn-awareness hurt utility: %v vs %v", au, ou)
	}
}

// TestFailureScenario: jobs survive node failures via checkpoint +
// re-placement; the loop keeps operating.
func TestFailureScenario(t *testing.T) {
	r, err := Run(FailureScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	if r.VMCounters.Evictions == 0 {
		t.Error("fault injection did not evict anything")
	}
	if r.JobStats.Completed < 20 {
		t.Errorf("completed %d jobs under failures", r.JobStats.Completed)
	}
}

func TestSummarizeResult(t *testing.T) {
	r, err := Run(QuickScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	s := SummarizeResult(r)
	if s == "" {
		t.Error("empty summary")
	}
}

// TestDiffServClassUtilitiesEqualized: the equalizer holds gold and
// silver at comparable *utility* even though their goals (and hence
// their CPU and completion stretch) differ — that is the mechanism of
// goal-driven differentiation.
func TestDiffServClassUtilitiesEqualized(t *testing.T) {
	if testing.Short() {
		t.Skip("full diffserv run")
	}
	r, err := Run(DiffServScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	gold := r.Recorder.Series("jobs/gold/hypoUtility")
	silver := r.Recorder.Series("jobs/silver/hypoUtility")
	if len(gold.Points()) == 0 || len(silver.Points()) == 0 {
		t.Fatal("per-class utility series not recorded")
	}
	// Compare over the contended middle of the run.
	var gap float64
	var n int
	for _, p := range gold.Window(15000, 40000) {
		if sv, ok := silver.ValueAt(p.T); ok {
			gap += math.Abs(p.V - sv)
			n++
		}
	}
	if n == 0 {
		t.Fatal("no overlapping samples")
	}
	if gap/float64(n) > 0.2 {
		t.Errorf("class utilities diverged: mean gap %v", gap/float64(n))
	}
}

// TestSpikeScenarioAdapts: a 3x transactional surge must pull CPU away
// from the jobs within a few control cycles and return it afterwards.
func TestSpikeScenarioAdapts(t *testing.T) {
	if testing.Short() {
		t.Skip("full spike run")
	}
	r, err := Run(SpikeScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	rec := r.Recorder
	webAlloc := rec.Series("trans/web/alloc")
	preSpike := webAlloc.MeanOver(9000, 18000)
	inSpike := webAlloc.MeanOver(20400, 25200) // after detection lag
	postSpike := webAlloc.MeanOver(30000, 36000)
	if inSpike < 1.4*preSpike {
		t.Errorf("controller did not shift CPU to the spike: %v -> %v", preSpike, inSpike)
	}
	if math.Abs(postSpike-preSpike) > 0.25*preSpike {
		t.Errorf("allocation did not return after the spike: pre %v post %v", preSpike, postSpike)
	}
	// The onset dip is bounded: within two cycles the web utility is
	// back above 0.6.
	webU := rec.Series("trans/web/utility")
	if got := webU.MeanOver(20400, 25200); got < 0.6 {
		t.Errorf("web utility during managed spike %v, want > 0.6", got)
	}
	// Jobs keep making progress throughout.
	if r.JobStats.Completed < 25 {
		t.Errorf("completed %d jobs during spike run", r.JobStats.Completed)
	}
}

// TestHeterogeneousCluster: groups of big and small nodes; the placer
// must respect the small nodes' memory and the run must complete.
func TestHeterogeneousCluster(t *testing.T) {
	sc := QuickScenario(4)
	sc.NodeSpecs = []NodeSpec{
		{Count: 2, CPU: 18000, Mem: 16000}, // big: 3 job slots
		{Count: 3, CPU: 9000, Mem: 6000},   // small: 1 job slot, half CPU
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.JobStats.Completed < 10 {
		t.Errorf("completed %d jobs on heterogeneous cluster", r.JobStats.Completed)
	}
	if r.FailedActions != 0 {
		t.Errorf("failed actions: %d (memory violation on small nodes?)", r.FailedActions)
	}
	// Invalid specs rejected.
	sc.NodeSpecs = []NodeSpec{{Count: 0, CPU: 1, Mem: 1}}
	if err := sc.Validate(); err == nil {
		t.Error("zero-count node spec accepted")
	}
}

// TestMultiAppFairness: three web apps with identical traffic but
// different SLAs — the tighter the SLA, the more CPU the equalizer
// must spend on it, while every app stays healthy.
func TestMultiAppFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("full multiapp run")
	}
	r, err := Run(MultiAppScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(id string) float64 {
		return r.Recorder.Series("trans/"+id+"/alloc").MeanOver(12000, 36000)
	}
	util := func(id string) float64 {
		return r.Recorder.Series("trans/"+id+"/utility").MeanOver(12000, 36000)
	}
	gold, silver, bronze := alloc("gold-web"), alloc("silver-web"), alloc("bronze-web")
	if !(gold > silver*1.2 && silver > bronze*1.05) {
		t.Errorf("allocation not ordered by SLA tightness: gold %v silver %v bronze %v",
			gold, silver, bronze)
	}
	for _, id := range []string{"gold-web", "silver-web", "bronze-web"} {
		if u := util(id); u < 0.7 {
			t.Errorf("%s mean utility %v, want healthy (> 0.7)", id, u)
		}
	}
	if r.FailedActions != 0 {
		t.Errorf("failed actions: %d", r.FailedActions)
	}
}

// TestCancellationInjection: withdrawn jobs release their resources and
// never destabilize the loop.
func TestCancellationInjection(t *testing.T) {
	sc := QuickScenario(8)
	sc.Jobs[0].CancelFraction = 0.5
	sc.Jobs[0].MaxJobs = 30
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.JobStats.Canceled == 0 {
		t.Error("no cancellations injected")
	}
	if r.JobStats.Completed == 0 {
		t.Error("cancellations starved all completions")
	}
	if r.FailedActions > 2 {
		// A plan action may rarely race a just-cancelled job; the loop
		// must absorb it, not accumulate failures.
		t.Errorf("failed actions: %d", r.FailedActions)
	}
	// Validation bounds.
	sc.Jobs[0].CancelFraction = 1.5
	if err := sc.Validate(); err == nil {
		t.Error("cancel fraction > 1 accepted")
	}
}

// TestJobOutcomesExport: per-job results are collected and exportable.
func TestJobOutcomesExport(t *testing.T) {
	sc := QuickScenario(12)
	sc.Jobs[0].CancelFraction = 0.3
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.JobOutcomes) != r.JobStats.Completed+r.JobStats.Canceled {
		t.Errorf("outcomes %d != completed %d + canceled %d",
			len(r.JobOutcomes), r.JobStats.Completed, r.JobStats.Canceled)
	}
	var sawCanceled, sawCompleted bool
	for _, o := range r.JobOutcomes {
		if o.Canceled {
			sawCanceled = true
			continue
		}
		sawCompleted = true
		if o.Stretch < 1 {
			t.Errorf("job %s stretch %v < 1 (faster than physics)", o.ID, o.Stretch)
		}
		if o.Finished <= o.Submitted {
			t.Errorf("job %s finished before submission", o.ID)
		}
	}
	if !sawCanceled || !sawCompleted {
		t.Errorf("outcome mix missing: canceled=%v completed=%v", sawCanceled, sawCompleted)
	}
	var sb strings.Builder
	if err := WriteJobOutcomes(&sb, r.JobOutcomes); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(sb.String(), "\n")
	if lines != len(r.JobOutcomes)+1 {
		t.Errorf("CSV lines %d, want %d", lines, len(r.JobOutcomes)+1)
	}
}
