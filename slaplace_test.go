// The module root holds no library code: the cmd/ binaries call the
// internal packages directly. These tests drive those packages end to
// end the way the binaries do, beside the root benchmarks.
package slaplace_test

import (
	"strings"
	"testing"

	"slaplace/api"
	"slaplace/internal/baseline"
	"slaplace/internal/control"
	"slaplace/internal/core"
	"slaplace/internal/experiments"
	"slaplace/internal/metrics"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/vm"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

func TestFacadeQuickRun(t *testing.T) {
	r, err := experiments.Run(experiments.QuickScenario(11))
	if err != nil {
		t.Fatal(err)
	}
	if r.JobStats.Completed == 0 {
		t.Error("no jobs completed")
	}
	if s := experiments.SummarizeResult(r); s == "" {
		t.Error("empty summary")
	}
}

func TestFacadeCustomScenario(t *testing.T) {
	model, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		t.Fatal(err)
	}
	sc := experiments.Scenario{
		Name:       "facade-custom",
		Seed:       1,
		Horizon:    4000,
		Nodes:      2,
		NodeCPU:    18000,
		NodeMem:    16 * res.GB,
		Costs:      vm.DefaultCosts(),
		Controller: core.New(core.DefaultConfig()),
		Loop: control.Options{
			CyclePeriod:    300,
			FirstCycle:     30,
			ActuationDelay: 25,
		},
		Jobs: []experiments.JobStream{{
			Class: batch.Class{
				Name:        "crunch",
				Work:        res.Work(4500 * 600),
				MaxSpeed:    4500,
				Mem:         4 * res.GB,
				GoalStretch: 3,
			},
			InitialBurst: 2,
			MaxJobs:      4,
			Phases:       []batch.Phase{{Start: 0, MeanInterarrival: 600}},
			IDPrefix:     "crunch",
		}},
		Apps: []trans.Config{{
			ID:             "shop",
			RTGoal:         2.0,
			Model:          model,
			Pattern:        trans.Constant{Rate: 5},
			InstanceMem:    1 * res.GB,
			MaxPerInstance: 18000,
			MinInstances:   1,
		}},
	}
	r, err := experiments.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.JobStats.Completed == 0 {
		t.Error("custom scenario completed no jobs")
	}
	last, ok := r.Recorder.Series("trans/shop/utility").Last()
	if !ok || last.V < 0.5 {
		t.Errorf("lightly loaded web app utility %v, want healthy", last.V)
	}
}

func TestFacadeBaselines(t *testing.T) {
	for _, ctrl := range []core.Controller{
		baseline.FCFS{}, baseline.EDF{}, baseline.FairShare{}, baseline.Static{BatchFraction: 0.5},
	} {
		if ctrl.Name() == "" {
			t.Errorf("%T: empty name", ctrl)
		}
	}
}

// TestFacadeSession: the session-based control API — Propose against a
// wire snapshot, plan-mode constants, and the plan-reuse series
// recorded by simulated runs.
func TestFacadeSession(t *testing.T) {
	snap := &api.Snapshot{
		SchemaVersion: api.SchemaVersion,
		Now:           600,
		Nodes: []api.Node{
			{ID: "n1", CPUMHz: 18000, MemMB: 16000},
			{ID: "n2", CPUMHz: 18000, MemMB: 16000},
		},
		Jobs: []api.Job{{
			ID: "j1", State: api.JobPending,
			RemainingMHzs: 4500 * 600, MaxSpeedMHz: 4500, MemMB: 4096,
			GoalSec: 3000, SubmittedSec: 0,
		}},
	}
	sess, err := control.NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	plan, stats, err := sess.Propose(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Actions) == 0 {
		t.Error("session planned no actions for a placeable job")
	}
	if stats.LastMode != core.PlanFull && stats.LastMode != core.PlanIncremental {
		t.Errorf("first plan mode %v", stats.LastMode)
	}
	// The same snapshot replays from cache.
	if _, stats, err = sess.Propose(snap); err != nil || stats.LastMode != core.PlanReplayed {
		t.Errorf("replay: mode %v err %v", stats.LastMode, err)
	}
	if d := plan.Diff(plan); len(d) != 0 {
		t.Errorf("self-diff: %v", d)
	}

	// Baseline controllers host sessions too.
	if _, err := control.NewSession(baseline.FCFS{}); err != nil {
		t.Errorf("NewSession(FCFS): %v", err)
	}

	// Simulated runs record the plan-reuse series and
	// report cumulative PlanStats.
	r, err := experiments.Run(experiments.QuickScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{control.SeriesPlanMode, control.SeriesDemandDelta} {
		if !r.Recorder.Has(name) {
			t.Errorf("series %q not recorded", name)
		}
	}
	var total core.PlanStats
	total = r.PlanStats
	if total.Full+total.Incremental+total.Replayed != r.Cycles {
		t.Errorf("plan stats %+v do not sum to %d cycles", total, r.Cycles)
	}
}

func TestFacadeASCIIRender(t *testing.T) {
	r, err := experiments.Run(experiments.QuickScenario(2))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	series := []*metrics.Series{
		r.Recorder.Series("trans/web/utility"),
		r.Recorder.Series("jobs/hypoUtility"),
	}
	if err := metrics.RenderASCII(&sb, "utilities", series, 60, 12); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "utilities") {
		t.Error("render missing title")
	}
}
