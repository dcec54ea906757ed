// Benchmark harness: one benchmark per figure of the paper plus one
// per extension experiment (see DESIGN.md §5 and EXPERIMENTS.md).
//
// These are *reproduction* benchmarks: beyond ns/op they report the
// experiment's headline quantities via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the evaluation in one
// command:
//
//	Figure 1  -> utility trough/gap metrics (equalization quality)
//	Figure 2  -> demand/allocation metrics (uneven split, full usage)
//	E4        -> gold vs silver stretch (service differentiation)
//	E5        -> per-controller max-min utility (baseline comparison)
//	E6        -> placement-controller planning cost vs cluster size
//	E7        -> migrations with/without churn-awareness
package slaplace_test

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"slaplace/internal/baseline"
	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/experiments"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/utility"
	"slaplace/internal/workload/batch"
)

// runOnce executes a scenario once per benchmark iteration.
func runOnce(b *testing.B, sc experiments.Scenario) *experiments.Result {
	b.Helper()
	r, err := experiments.Run(sc)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// seriesMin returns a series minimum over [t0, t1].
func seriesMin(r *experiments.Result, name string, t0, t1 float64) float64 {
	min := math.Inf(1)
	for _, p := range r.Recorder.Series(name).Window(t0, t1) {
		min = math.Min(min, p.V)
	}
	return min
}

// BenchmarkFigure1_UtilityEqualization regenerates the paper's
// Figure 1 (actual transactional utility vs mean hypothetical
// long-running utility over time) and reports its shape metrics:
// the utility troughs and the mean gap between the two curves during
// contention — the equalization the paper demonstrates.
func BenchmarkFigure1_UtilityEqualization(b *testing.B) {
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = runOnce(b, experiments.PaperScenario(42))
	}
	webU := r.Recorder.Series("trans/web/utility")
	jobU := r.Recorder.Series("jobs/hypoUtility")
	var gap float64
	var n int
	for _, p := range webU.Window(25000, 55000) {
		if jv, ok := jobU.ValueAt(p.T); ok {
			gap += math.Abs(p.V - jv)
			n++
		}
	}
	b.ReportMetric(webU.MeanOver(1200, 6000), "webU-early")
	b.ReportMetric(seriesMin(r, "trans/web/utility", 30000, 66000), "webU-trough")
	b.ReportMetric(seriesMin(r, "jobs/hypoUtility", 30000, 66000), "jobU-trough")
	b.ReportMetric(gap/float64(n), "utility-gap")
	b.ReportMetric(webU.MeanOver(66000, 72000), "webU-end")
}

// BenchmarkFigure2_AllocationTracksDemand regenerates Figure 2 (CPU
// power demanded vs allocated per workload) and reports: the constant
// transactional demand, the job-demand peak, and the peak share of
// cluster capacity the jobs reach — the "uneven distribution of
// resources" the paper highlights.
func BenchmarkFigure2_AllocationTracksDemand(b *testing.B) {
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = runOnce(b, experiments.PaperScenario(42))
	}
	capacity := 25.0 * 18000
	jobDemandPeak, jobAllocPeak := 0.0, 0.0
	for _, p := range r.Recorder.Series("jobs/demand").Points() {
		jobDemandPeak = math.Max(jobDemandPeak, p.V)
	}
	for _, p := range r.Recorder.Series("jobs/alloc").Points() {
		jobAllocPeak = math.Max(jobAllocPeak, p.V)
	}
	webDemand := r.Recorder.Series("trans/web/demand").Summarize().Last
	webAllocMin := seriesMin(r, "trans/web/alloc", 1200, 72000)
	b.ReportMetric(webDemand/1000, "webDemand-GHz")
	b.ReportMetric(webAllocMin/1000, "webAllocMin-GHz")
	b.ReportMetric(jobDemandPeak/1000, "jobDemandPeak-GHz")
	b.ReportMetric(jobAllocPeak/capacity*100, "jobAllocPeak-pct")
}

// BenchmarkDiffServ regenerates E4 (service differentiation): equal
// work, different goals; gold must finish with lower stretch.
func BenchmarkDiffServ(b *testing.B) {
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = runOnce(b, experiments.DiffServScenario(42))
	}
	gold := r.ClassStats["gold"]
	silver := r.ClassStats["silver"]
	b.ReportMetric(gold.MeanStretch, "gold-stretch")
	b.ReportMetric(silver.MeanStretch, "silver-stretch")
	b.ReportMetric(float64(gold.GoalViolations+silver.GoalViolations), "violations")
}

// BenchmarkBaselines regenerates E5: the same workload trace under the
// utility controller and each baseline, reporting the max-min utility
// each policy sustains.
func BenchmarkBaselines(b *testing.B) {
	cases := []struct {
		name string
		ctrl core.Controller
	}{
		{"utility", core.New(core.DefaultConfig())},
		{"fcfs", baseline.FCFS{}},
		{"edf", baseline.EDF{}},
		{"fairshare", baseline.FairShare{}},
		{"static60", baseline.Static{BatchFraction: 0.6}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var r *experiments.Result
			for i := 0; i < b.N; i++ {
				r = runOnce(b, experiments.BaselineScenario(42, c.ctrl))
			}
			minU := math.Min(
				seriesMin(r, "trans/web/utility", 1200, 36000),
				seriesMin(r, "jobs/hypoUtility", 1200, 36000))
			b.ReportMetric(minU, "maxmin-utility")
			b.ReportMetric(float64(r.JobStats.Completed), "completed")
			b.ReportMetric(float64(r.JobStats.GoalViolations), "violations")
		})
	}
}

// BenchmarkChurnAblation regenerates E7: churn-aware vs churn-oblivious
// placement on identical traces; reports migration counts and job
// outcomes.
func BenchmarkChurnAblation(b *testing.B) {
	for _, aware := range []bool{true, false} {
		name := "aware"
		if !aware {
			name = "oblivious"
		}
		b.Run(name, func(b *testing.B) {
			var r *experiments.Result
			for i := 0; i < b.N; i++ {
				r = runOnce(b, experiments.ChurnScenario(42, aware))
			}
			b.ReportMetric(float64(r.VMCounters.Migrations), "migrations")
			b.ReportMetric(float64(r.VMCounters.Suspends), "suspends")
			b.ReportMetric(r.ClassStats["batch"].MeanCompletionUtility, "completionU")
		})
	}
}

// BenchmarkFailureRecovery regenerates the failure-injection run:
// node failures mid-run with checkpoint/replacement recovery.
func BenchmarkFailureRecovery(b *testing.B) {
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = runOnce(b, experiments.FailureScenario(42))
	}
	b.ReportMetric(float64(r.VMCounters.Evictions), "evictions")
	b.ReportMetric(float64(r.JobStats.Completed), "completed")
}

// BenchmarkSpike regenerates the load-spike experiment: how fast and
// how completely the controller re-allocates around a 3x transactional
// surge.
func BenchmarkSpike(b *testing.B) {
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = runOnce(b, experiments.SpikeScenario(42))
	}
	webAlloc := r.Recorder.Series("trans/web/alloc")
	pre := webAlloc.MeanOver(9000, 18000)
	in := webAlloc.MeanOver(20400, 25200)
	post := webAlloc.MeanOver(30000, 36000)
	b.ReportMetric(in/pre, "spike-alloc-ratio")
	b.ReportMetric(post/pre, "recovery-ratio")
	b.ReportMetric(float64(r.JobStats.Completed), "completed")
}

// BenchmarkMultiApp regenerates the three-SLA fairness experiment:
// identical traffic, SLA-ordered CPU allocations, all apps healthy.
func BenchmarkMultiApp(b *testing.B) {
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = runOnce(b, experiments.MultiAppScenario(42))
	}
	alloc := func(id string) float64 {
		return r.Recorder.Series("trans/"+id+"/alloc").MeanOver(12000, 36000)
	}
	b.ReportMetric(alloc("gold-web")/1000, "goldAlloc-GHz")
	b.ReportMetric(alloc("silver-web")/1000, "silverAlloc-GHz")
	b.ReportMetric(alloc("bronze-web")/1000, "bronzeAlloc-GHz")
}

// BenchmarkPlacementScale is E6: the placement controller's planning
// cost per control cycle as the cluster and job population grow. The
// paper's controller must run every 600 s; planning cost is what
// bounds its applicability.
//
// Two variants per shape:
//
//	cold    a from-scratch plan (Incremental off — the reference
//	        planner), on the half-loaded synthetic snapshot;
//	steady  a steady-state re-plan: the controller planned the
//	        previous cycle, and only the transactional demand drifts —
//	        the carry-over tier of core/incremental.go.
//
// The CI benchmark-regression gate (cmd/benchgate) tracks the medians
// of every sub-benchmark against BENCH_placement.json.
func BenchmarkPlacementScale(b *testing.B) {
	model, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		b.Fatal(err)
	}
	shapes := []struct{ nodes, jobs int }{
		{10, 30}, {25, 100}, {50, 300}, {100, 800}, {200, 2000}, {500, 5000},
		{2000, 20000}, {5000, 50000},
	}
	for _, sh := range shapes {
		b.Run(fmt.Sprintf("cold/nodes=%d/jobs=%d", sh.nodes, sh.jobs), func(b *testing.B) {
			st := syntheticState(sh.nodes, sh.jobs, model)
			cfg := core.DefaultConfig()
			cfg.Incremental = false
			ctrl := core.New(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan := ctrl.Plan(st)
				if plan == nil {
					b.Fatal("nil plan")
				}
			}
		})
	}
	for _, sh := range shapes {
		if sh.nodes < 500 {
			continue // carry-over only pays off at scale; keep CI lean
		}
		b.Run(fmt.Sprintf("steady/nodes=%d/jobs=%d", sh.nodes, sh.jobs), func(b *testing.B) {
			st := steadySyntheticState(sh.nodes, sh.jobs, model)
			ctrl := core.New(core.DefaultConfig())
			ctrl.Plan(st) // previous cycle
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fresh demand level every iteration: measure genuine
				// carry-over re-plans, never exact-snapshot replays.
				st = withLambda(st, 65+0.1*float64(i%50+1))
				plan := ctrl.Plan(st)
				if plan == nil {
					b.Fatal("nil plan")
				}
			}
			b.StopTimer()
			if got := ctrl.PlanStats(); got.Incremental == 0 || got.Replayed != 0 {
				b.Fatalf("steady benchmark did not stay on the carry-over tier: %+v", got)
			}
		})
	}
}

// TestIncrementalReplanSpeedup pins the incremental planner's headline
// guarantee: at the 500-node/5000-job shape, a steady-state re-plan is
// at least 3x faster than a from-scratch plan of the same snapshot.
func TestIncrementalReplanSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("timing test; race instrumentation skews the ratio")
	}
	model, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	st := steadySyntheticState(500, 5000, model)

	coldCfg := core.DefaultConfig()
	coldCfg.Incremental = false
	cold := core.New(coldCfg)
	cold.Plan(st) // warm caches and allocator
	coldBest := time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		cold.Plan(st)
		if d := time.Since(start); d < coldBest {
			coldBest = d
		}
	}

	inc := core.New(core.DefaultConfig())
	inc.Plan(st) // previous cycle
	incBest := time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		// A fresh demand level every round: each re-plan is a genuine
		// carry-over, never an exact-snapshot replay.
		st = withLambda(st, 65+0.1*float64(i+1))
		start := time.Now()
		inc.Plan(st)
		if d := time.Since(start); d < incBest {
			incBest = d
		}
	}
	if stats := inc.PlanStats(); stats.Incremental < rounds+1 || stats.Replayed != 0 {
		t.Fatalf("steady re-plans did not all take the carry-over tier: %+v", stats)
	}
	ratio := float64(coldBest) / float64(incBest)
	t.Logf("cold %v vs steady %v: %.1fx", coldBest, incBest, ratio)
	if ratio < 3 {
		t.Errorf("steady-state re-plan only %.2fx faster than cold (want >= 3x)", ratio)
	}

	// The speedup must not change a single byte: compare the carry-over
	// plan against the from-scratch plan at full scale.
	st = withLambda(st, 65.25)
	if got, want := inc.Plan(st).Digest(), cold.Plan(st).Digest(); got != want {
		t.Errorf("incremental plan diverges from from-scratch plan at 500/5000")
	}
}

// withLambda returns a new snapshot that differs from st only in its
// first app's arrival rate. A controller may still read a State it was
// handed, so a drifting cycle never edits st in place.
func withLambda(st *core.State, lambda float64) *core.State {
	next := &core.State{Now: st.Now, Nodes: st.Nodes, Jobs: st.Jobs, Apps: slices.Clone(st.Apps)}
	next.Apps[0].Lambda = lambda
	return next
}

// syntheticState builds a half-loaded cluster snapshot for planning
// benchmarks: half the jobs running, half queued.
func syntheticState(nodes, jobs int, model queueing.MG1PS) *core.State {
	st := &core.State{Now: 50000}
	for i := 0; i < nodes; i++ {
		st.Nodes = append(st.Nodes, core.NodeInfo{
			ID:  cluster.NodeID(fmt.Sprintf("n%03d", i)),
			CPU: 18000,
			Mem: 16000,
		})
	}
	running := 0
	for i := 0; i < jobs; i++ {
		info := core.JobInfo{
			ID:        batch.JobID(fmt.Sprintf("j%04d", i)),
			State:     batch.Pending,
			Remaining: res.Work(4500 * float64(5000+i%20000)),
			MaxSpeed:  4500,
			Mem:       5000,
			Goal:      60000 + float64(i%40000),
			Submitted: float64(i),
		}
		if running < nodes*2 && i%2 == 0 {
			info.State = batch.Running
			info.Node = st.Nodes[running%nodes].ID
			info.Share = 4500
			running++
		}
		st.Jobs = append(st.Jobs, info)
	}
	st.Apps = []core.AppInfo{{
		ID: "web", Lambda: 65, RTGoal: 3.0, Model: model,
		InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: nodes,
		Instances: map[cluster.NodeID]res.CPU{},
	}}
	return st
}

// steadySyntheticState builds a crowded steady-state snapshot for the
// incremental-replan benchmarks: every node hosts a web instance plus
// two running jobs (5 GB free each), and the pending backlog's 12 GB
// footprint fits neither the free memory nor the memory a single
// eviction could free (5 + 5 GB) — so cycle over cycle, the placement
// provably cannot change and only demand drift re-prices the shares.
func steadySyntheticState(nodes, jobs int, model queueing.MG1PS) *core.State {
	st := &core.State{Now: 50000}
	instances := map[cluster.NodeID]res.CPU{}
	for i := 0; i < nodes; i++ {
		id := cluster.NodeID(fmt.Sprintf("n%04d", i))
		st.Nodes = append(st.Nodes, core.NodeInfo{ID: id, CPU: 18000, Mem: 16000})
		instances[id] = 150
	}
	running := 2 * nodes
	if running > jobs {
		running = jobs
	}
	for i := 0; i < jobs; i++ {
		info := core.JobInfo{
			ID:        batch.JobID(fmt.Sprintf("j%05d", i)),
			State:     batch.Pending,
			Remaining: res.Work(4500 * float64(5000+i%20000)),
			MaxSpeed:  4500,
			Mem:       12000,
			Goal:      60000 + float64(i%40000),
			Submitted: float64(i),
		}
		if i < running {
			info.State = batch.Running
			info.Node = st.Nodes[i%nodes].ID
			info.Share = 4500
			info.Mem = 5000
			info.Goal = 120000 + float64(i)
		}
		st.Jobs = append(st.Jobs, info)
	}
	st.Apps = []core.AppInfo{{
		ID: "web", Lambda: 65, RTGoal: 3.0, Model: model,
		InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: nodes,
		Instances: instances,
	}}
	return st
}

// BenchmarkEqualizer measures the hypothetical-utility waterfill alone
// across population sizes — the inner loop of every control cycle.
func BenchmarkEqualizer(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("curves=%d", n), func(b *testing.B) {
			curves := make([]utility.Curve, n)
			for i := range curves {
				curves[i] = utility.NewJobCurve(fmt.Sprintf("j%d", i), 0,
					res.Work(4500*float64(1000+i)), 4500, float64(3000+i*7), nil)
			}
			capacity := res.CPU(float64(n) * 2000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := utility.Equalize(curves, capacity)
				if r.Allocated <= 0 {
					b.Fatal("no allocation")
				}
			}
		})
	}
}

// BenchmarkFullPaperRun measures the complete Figure 1/2 simulation —
// 120 control cycles over 72 000 simulated seconds — as one unit.
func BenchmarkFullPaperRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runOnce(b, experiments.PaperScenario(uint64(42)))
		if r.JobStats.Completed == 0 {
			b.Fatal("no completions")
		}
	}
}
