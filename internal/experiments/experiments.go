// Package experiments assembles full scenario runs: cluster + vm
// substrate + workload generators + control loop, executed to a
// horizon on the event engine. It hosts the canned configurations the
// figure binaries and benchmarks share — most importantly
// PaperScenario, the 25-node / 800-job experiment of the paper's §3
// whose two figures this repository reproduces.
package experiments

import (
	"fmt"
	"io"
	"math"

	"slaplace/internal/chaos"
	"slaplace/internal/cluster"
	"slaplace/internal/control"
	"slaplace/internal/core"
	"slaplace/internal/forecast"
	"slaplace/internal/metrics"
	"slaplace/internal/res"
	"slaplace/internal/rng"
	"slaplace/internal/sim"
	"slaplace/internal/trace"
	"slaplace/internal/vm"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// JobStream configures one job arrival process.
type JobStream struct {
	Class        batch.Class
	Phases       []batch.Phase
	MaxJobs      int
	InitialBurst int // jobs submitted at t=0 ("already placed" seed set)
	IDPrefix     string
	// CancelFraction is the probability that a submitted job is later
	// withdrawn (at a uniformly random point of the first half of its
	// goal window) — user-driven cancellations, a workload dynamic the
	// controller must absorb.
	CancelFraction float64
}

// NodeFault schedules a node failure (and optional recovery) during
// the run, for the failure-injection experiments.
type NodeFault struct {
	Node      cluster.NodeID `json:"node"`
	FailAt    float64        `json:"failAt"`
	RestoreAt float64        `json:"restoreAt"` // 0 = never restored
}

// NodeSpec describes one group of identical nodes in a heterogeneous
// cluster.
type NodeSpec struct {
	Count int
	CPU   res.CPU
	Mem   res.Memory
}

// Scenario is a complete experiment description.
type Scenario struct {
	Name    string
	Seed    uint64
	Horizon float64

	// Uniform cluster shape; ignored when NodeSpecs is set.
	Nodes   int
	NodeCPU res.CPU
	NodeMem res.Memory
	// NodeSpecs builds a heterogeneous cluster instead: groups of
	// identical nodes named node-001, node-002, ... in spec order.
	NodeSpecs []NodeSpec
	Costs     vm.Costs

	Controller core.Controller
	Loop       control.Options
	// Forecast, when set, enables predictive planning: the session
	// forecasts each application's next-cycle demand and places against
	// the prediction instead of the last observation.
	Forecast *forecast.Config

	Jobs   []JobStream
	Apps   []trans.Config
	Faults []NodeFault

	// Chaos, when set, interposes the seeded fault-injection engine
	// between monitor and controller: snapshots are perturbed (crashes,
	// detection lag, flapping, waves, stale replays), real failures land
	// in the simulated cluster, and every plan is audited against the
	// snapshot the controller saw with core.CheckPlan. A zero chaos seed
	// falls back to the scenario seed.
	Chaos *chaos.Config

	// JobTrace, when non-empty, replays recorded jobs (in addition to
	// any Jobs streams). TraceBase supplies the goal stretch and
	// utility function for records without explicit goals; it defaults
	// to the paper's job class when zero.
	JobTrace  []trace.JobRecord
	TraceBase batch.Class
}

// Validate reports scenario configuration errors.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("experiments: scenario with empty name")
	}
	if !(s.Horizon > 0) || math.IsInf(s.Horizon, 1) {
		return fmt.Errorf("experiments: horizon %v is not finite and positive", s.Horizon)
	}
	if len(s.NodeSpecs) == 0 {
		if s.Nodes <= 0 || s.NodeCPU <= 0 || s.NodeMem <= 0 {
			return fmt.Errorf("experiments: invalid cluster shape %d×(%v,%v)", s.Nodes, s.NodeCPU, s.NodeMem)
		}
	} else {
		for i, spec := range s.NodeSpecs {
			if spec.Count <= 0 || spec.CPU <= 0 || spec.Mem <= 0 {
				return fmt.Errorf("experiments: invalid node spec %d: %+v", i, spec)
			}
		}
	}
	if s.Controller == nil {
		return fmt.Errorf("experiments: no controller")
	}
	if s.Forecast != nil {
		if err := s.Forecast.Validate(); err != nil {
			return fmt.Errorf("experiments: forecast: %w", err)
		}
	}
	if err := s.Loop.Validate(); err != nil {
		return err
	}
	for i, js := range s.Jobs {
		if err := js.Class.Validate(); err != nil {
			return fmt.Errorf("experiments: job stream %d: %w", i, err)
		}
		if js.CancelFraction < 0 || js.CancelFraction > 1 {
			return fmt.Errorf("experiments: job stream %d cancel fraction %v outside [0,1]",
				i, js.CancelFraction)
		}
	}
	for i, app := range s.Apps {
		if err := app.Validate(); err != nil {
			return fmt.Errorf("experiments: app %d: %w", i, err)
		}
	}
	for i, r := range s.JobTrace {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("experiments: trace record %d: %w", i, err)
		}
	}
	if s.Chaos != nil {
		if err := s.Chaos.Validate(); err != nil {
			return fmt.Errorf("experiments: chaos: %w", err)
		}
	}
	return nil
}

// ClassStats aggregates completed-job outcomes for one class.
type ClassStats struct {
	Completed             int
	GoalViolations        int
	MeanCompletionUtility float64
	MeanStretch           float64 // (completion - submission) / ideal duration
}

// JobOutcome records one finished (completed or canceled) job.
type JobOutcome struct {
	ID        string
	Class     string
	Submitted float64
	Finished  float64 // completion or cancellation time
	Stretch   float64 // (finished - submitted) / ideal duration; completions only
	Utility   float64 // completion utility; completions only
	Suspends  int
	Canceled  bool
}

// Result is everything a finished run reports.
type Result struct {
	Scenario      string
	Controller    string
	Recorder      *metrics.Recorder
	JobStats      batch.Stats
	ClassStats    map[string]ClassStats
	JobOutcomes   []JobOutcome
	VMCounters    vm.Counters
	FailedActions int
	Cycles        int
	EventsFired   uint64
	Submitted     int
	// PlanStats reports how the controller produced each cycle's plan
	// (full / incremental carry-over / replayed) when the controller
	// threads the previous plan through cycles; zero otherwise.
	PlanStats core.PlanStats

	// Chaos-run outputs (zero when the scenario has no chaos block):
	// injection counters, how many plans failed the invariant audit,
	// and the first audit failure's message.
	ChaosStats              chaos.Stats
	InvariantViolations     int
	FirstInvariantViolation string
}

// WriteJobOutcomes exports per-job results as CSV for offline analysis.
func WriteJobOutcomes(w io.Writer, outcomes []JobOutcome) error {
	if _, err := fmt.Fprintln(w, "id,class,submitted,finished,stretch,utility,suspends,canceled"); err != nil {
		return err
	}
	for _, o := range outcomes {
		if _, err := fmt.Fprintf(w, "%s,%s,%g,%g,%g,%g,%d,%t\n",
			o.ID, o.Class, o.Submitted, o.Finished, o.Stretch, o.Utility, o.Suspends, o.Canceled); err != nil {
			return err
		}
	}
	return nil
}

// Run executes a scenario to its horizon and collects the results.
func Run(sc Scenario) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	eng := sim.New()
	cl, err := buildCluster(sc)
	if err != nil {
		return nil, err
	}
	mgr := vm.NewManager(eng, cl, sc.Costs)
	jobs := batch.NewRuntime(eng, mgr)
	src := rng.NewSource(sc.Seed)
	web := trans.NewRuntime(eng, mgr, src.Stream("observation-noise"))
	rec := metrics.NewRecorder()

	// The loop plans through a Session — the same long-lived planning
	// object the serving mode (cmd/slaplace-serve) multiplexes per
	// cluster — so incremental reuse semantics are identical whether
	// cycles are driven by the simulator or by wire requests.
	sess, errSess := control.NewSession(sc.Controller)
	if errSess != nil {
		return nil, errSess
	}
	if sc.Forecast != nil {
		if err := sess.EnableForecast(*sc.Forecast); err != nil {
			return nil, err
		}
	}
	loop, errLoop := control.NewLoop(eng, cl, mgr, jobs, web, sess, rec, sc.Loop)
	if errLoop != nil {
		return nil, errLoop
	}
	var chaosBackend *chaos.Backend
	if sc.Chaos != nil {
		cfg := *sc.Chaos
		if cfg.Seed == 0 {
			cfg.Seed = sc.Seed
		}
		chEng, err := chaos.New(cfg)
		if err != nil {
			return nil, err
		}
		chaosBackend = chaos.NewBackend(chEng, chaos.BackendOptions{
			World:    chaos.World{Fail: loop.FailNode, Restore: loop.RestoreNode},
			Recorder: rec,
			Check:    core.CheckPlan,
		})
		loop.WrapBackend(chaosBackend.Wrap)
	}

	for _, cfg := range sc.Apps {
		if _, err := web.Deploy(cfg); err != nil {
			return nil, err
		}
	}
	// Cancellation injection: decide each job's fate at submission so
	// replays stay deterministic regardless of scheduling.
	cancelStream := src.Stream("cancellations")
	cancelFrac := make(map[string]float64, len(sc.Jobs))
	for _, js := range sc.Jobs {
		if js.CancelFraction > 0 {
			cancelFrac[js.Class.Name] = js.CancelFraction
		}
	}
	if len(cancelFrac) > 0 {
		jobs.OnSubmit(func(j *batch.Job) {
			frac, ok := cancelFrac[j.Class().Name]
			if !ok || !cancelStream.Bool(frac) {
				return
			}
			window := (j.Goal() - j.Submitted()) / 2
			delay := cancelStream.Uniform(0, window)
			id := j.ID()
			eng.After(delay, "cancel/"+string(id), func(sim.Time) {
				if cur, ok := jobs.Job(id); !ok ||
					cur.State() == batch.Completed || cur.State() == batch.Canceled {
					return
				}
				if err := jobs.Cancel(id); err != nil {
					panic(fmt.Sprintf("experiments: injected cancel: %v", err))
				}
			})
		})
	}

	gens := make([]*batch.Generator, 0, len(sc.Jobs))
	for i, js := range sc.Jobs {
		gen, err := batch.NewGenerator(jobs, eng, src.Streamf("arrivals/%d", i),
			js.Class, js.Phases, js.MaxJobs, js.IDPrefix)
		if err != nil {
			return nil, err
		}
		if js.InitialBurst > 0 {
			if _, err := gen.SubmitBurst(js.InitialBurst); err != nil {
				return nil, err
			}
		}
		gens = append(gens, gen)
		gen.Start()
	}
	var replayer *trace.Replayer
	if len(sc.JobTrace) > 0 {
		base := sc.TraceBase
		if base.Name == "" {
			base = batch.Class{Name: "trace", Work: 1, MaxSpeed: 1, Mem: 1, GoalStretch: 2}
		}
		replayer, err = trace.NewReplayer(jobs, eng, sc.JobTrace, base)
		if err != nil {
			return nil, err
		}
		replayer.Start()
	}
	for _, f := range sc.Faults {
		f := f
		eng.At(sim.Time(f.FailAt), "fault/"+string(f.Node), func(sim.Time) {
			if err := loop.FailNode(f.Node); err != nil {
				panic(fmt.Sprintf("experiments: fault injection: %v", err))
			}
		})
		if f.RestoreAt > f.FailAt {
			eng.At(sim.Time(f.RestoreAt), "restore/"+string(f.Node), func(sim.Time) {
				if err := loop.RestoreNode(f.Node); err != nil {
					panic(fmt.Sprintf("experiments: fault restore: %v", err))
				}
			})
		}
	}

	loop.Start()
	eng.RunUntil(sim.Time(sc.Horizon))

	res := &Result{
		Scenario:      sc.Name,
		Controller:    sc.Controller.Name(),
		Recorder:      rec,
		JobStats:      jobs.Stats(),
		ClassStats:    classStats(jobs),
		JobOutcomes:   jobOutcomes(jobs),
		VMCounters:    mgr.Counters(),
		FailedActions: loop.FailedActions(),
		Cycles:        loop.Cycles(),
		EventsFired:   eng.Fired(),
	}
	for _, g := range gens {
		res.Submitted += g.Submitted()
	}
	if replayer != nil {
		res.Submitted += replayer.Count()
	}
	res.PlanStats = sess.PlanStats()
	if chaosBackend != nil {
		res.ChaosStats = chaosBackend.Stats()
		res.InvariantViolations = chaosBackend.Violations()
		res.FirstInvariantViolation = chaosBackend.FirstViolation()
	}
	return res, nil
}

// classStats aggregates completion outcomes per job class.
func classStats(rt *batch.Runtime) map[string]ClassStats {
	agg := map[string]*ClassStats{}
	sums := map[string][2]float64{} // utility, stretch
	for _, j := range rt.CompletedJobs() {
		name := j.Class().Name
		cs, ok := agg[name]
		if !ok {
			cs = &ClassStats{}
			agg[name] = cs
		}
		cs.Completed++
		if j.CompletedAt() > j.Goal() {
			cs.GoalViolations++
		}
		u, err := rt.CompletionUtility(j.ID())
		if err != nil {
			panic(err) // unreachable: job is completed
		}
		stretch := (j.CompletedAt() - j.Submitted()) / j.Class().IdealDuration()
		s := sums[name]
		s[0] += u
		s[1] += stretch
		sums[name] = s
	}
	out := make(map[string]ClassStats, len(agg))
	for name, cs := range agg {
		s := sums[name]
		cs.MeanCompletionUtility = s[0] / float64(cs.Completed)
		cs.MeanStretch = s[1] / float64(cs.Completed)
		out[name] = *cs
	}
	return out
}

// buildCluster constructs the scenario's cluster: uniform by default,
// grouped heterogeneous nodes when NodeSpecs is set.
func buildCluster(sc Scenario) (*cluster.Cluster, error) {
	if len(sc.NodeSpecs) == 0 {
		return cluster.Uniform(sc.Nodes, sc.NodeCPU, sc.NodeMem), nil
	}
	cl := cluster.New()
	idx := 1
	for _, spec := range sc.NodeSpecs {
		for i := 0; i < spec.Count; i++ {
			id := cluster.NodeID(fmt.Sprintf("node-%03d", idx))
			if _, err := cl.Add(id, spec.CPU, spec.Mem); err != nil {
				return nil, err
			}
			idx++
		}
	}
	return cl, nil
}

// jobOutcomes extracts per-job results in submission order.
func jobOutcomes(rt *batch.Runtime) []JobOutcome {
	var out []JobOutcome
	for _, j := range rt.Jobs() {
		switch j.State() {
		case batch.Completed:
			u, err := rt.CompletionUtility(j.ID())
			if err != nil {
				panic(err) // unreachable: job is completed
			}
			out = append(out, JobOutcome{
				ID:        string(j.ID()),
				Class:     j.Class().Name,
				Submitted: j.Submitted(),
				Finished:  j.CompletedAt(),
				Stretch:   (j.CompletedAt() - j.Submitted()) / j.Class().IdealDuration(),
				Utility:   u,
				Suspends:  j.Suspends(),
			})
		case batch.Canceled:
			out = append(out, JobOutcome{
				ID:        string(j.ID()),
				Class:     j.Class().Name,
				Submitted: j.Submitted(),
				Suspends:  j.Suspends(),
				Canceled:  true,
			})
		}
	}
	return out
}
