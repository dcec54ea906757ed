package main

import (
	"fmt"
	"os"
	"time"

	"slaplace/internal/core"
	"slaplace/internal/experiments"
	"slaplace/internal/forecast"
)

// simOutcome is what paper-sim observed.
type simOutcome struct {
	// setTimes are the durations of the timed passes over the scenario
	// set.
	setTimes []time.Duration
	// The remaining fields describe one pass over the scenario set; the
	// simulator is deterministic, so every pass repeats them exactly.
	cyclesPerSet   int
	slaViolations  int
	goalViolations int
	tiers          core.PlanStats
}

// timedController times the scenario's controller from the outside; the
// simulator cannot tell it from the controller it wraps.
type timedController struct {
	inner *core.PlacementController
	rec   *recorder // nil: do not record
}

func (c timedController) Name() string { return c.inner.Name() }

func (c timedController) Plan(st *core.State) *core.Plan {
	start := time.Now()
	plan := c.inner.Plan(st)
	if c.rec != nil {
		// The simulator is the planner's client here: what it waits for
		// each cycle is this call.
		c.rec.sample(time.Since(start))
	}
	return plan
}

func (c timedController) PlanStats() core.PlanStats { return c.inner.PlanStats() }

// simWorkload is the paper's own evaluation: the 25-node simulated
// testbed driven by the control loop in process, no wire. It is the one
// workload whose output includes plan quality, so a speed-up that
// changes decisions shows here as a changed count.
type simWorkload struct {
	seed uint64
	// reference holds each scenario's fingerprint from set-up; every
	// later run must reproduce it.
	reference []string
	out       outcome
}

func (w *simWorkload) flags() []string { return nil }

// scenarios builds the set afresh: a controller carries state, so each
// run needs its own.
func (w *simWorkload) scenarios(rec *recorder) []experiments.Scenario {
	holt := forecast.Config{Predictor: forecast.PredictorHolt, CorrectionAlpha: forecast.DefaultConfig().CorrectionAlpha}
	ramp, flash := experiments.RampScenario(w.seed), experiments.FlashCrowdScenario(w.seed)
	ramp.Forecast, flash.Forecast = &holt, &holt
	set := []experiments.Scenario{experiments.PaperScenario(w.seed), ramp, flash}
	for i := range set {
		set[i].Controller = timedController{core.New(core.DefaultConfig()), rec}
	}
	return set
}

// fingerprint condenses everything a run decided.
func fingerprint(r *experiments.Result) string {
	return fmt.Sprintf("%s | sla %d | plans %+v | events %d",
		experiments.SummarizeResult(r), experiments.SLAViolations(r), r.PlanStats, r.EventsFired)
}

// runSet runs every scenario once. The first pass after set-up began
// becomes the reference; every later one must reproduce it. With record
// set the pass is timed into the outcome.
func (w *simWorkload) runSet(record bool) error {
	sim := w.out.sim
	var rec *recorder
	if record {
		rec = w.out.rec
	}
	start := time.Now()
	for i, sc := range w.scenarios(rec) {
		res, err := experiments.Run(sc)
		if err != nil {
			return err
		}
		fp := fingerprint(res)
		if len(w.reference) <= i {
			w.reference = append(w.reference, fp)
			sim.cyclesPerSet += res.Cycles
			sim.slaViolations += experiments.SLAViolations(res)
			sim.goalViolations += res.JobStats.GoalViolations
			sim.tiers.Full += res.PlanStats.Full
			sim.tiers.Incremental += res.PlanStats.Incremental
			sim.tiers.Replayed += res.PlanStats.Replayed
			continue
		}
		if fp != w.reference[i] {
			return w.out.rec.fail(fmt.Errorf("scenario %s is not reproducible:\n  first %s\n  now   %s", sc.Name, w.reference[i], fp))
		}
	}
	if record {
		sim.setTimes = append(sim.setTimes, time.Since(start))
	}
	return nil
}

// referencePasses is how often set-up runs the scenario set: the first
// pass is the reference, the others must already reproduce it. Ten
// passes also make set-up long enough (~0.2 s) to time repeatably.
const referencePasses = 10

func (w *simWorkload) setup() error {
	w.reference = nil
	w.out = outcome{rec: newRecorder(), sim: &simOutcome{}}
	for i := 0; i < referencePasses; i++ {
		if err := w.runSet(false); err != nil {
			return err
		}
	}
	return nil
}

func (w *simWorkload) measure(d time.Duration) error {
	w.out.rec.begin()
	defer w.out.rec.end()
	for start := time.Now(); time.Since(start) < d; {
		if err := w.runSet(true); err != nil {
			return err
		}
	}
	// The planner runs in this process, so this is the process to weigh.
	w.out.rssMB, _ = peakRSSMB(os.Getpid())
	return nil
}

func (w *simWorkload) teardown() {}

func (w *simWorkload) outcome() *outcome { return &w.out }
