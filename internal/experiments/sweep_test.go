package experiments

import (
	"strings"
	"testing"
)

func TestMaxMinUtility(t *testing.T) {
	r, err := Run(QuickScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	v := MaxMinUtility(r, 600)
	if v <= -1 || v > 1 {
		t.Errorf("max-min utility %v out of plausible range", v)
	}
	// Empty recorder yields 0.
	empty := &Result{Recorder: r.Recorder}
	_ = empty
}

func TestCycleSweepTradesChurnForFreshness(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full runs")
	}
	points, err := CycleSweepSpec(42, []float64{300, 1200}).Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %d", len(points))
	}
	fast, slow := points[0], points[1]
	if fast.Suspends <= slow.Suspends {
		t.Errorf("shorter cycles should churn more: %d vs %d", fast.Suspends, slow.Suspends)
	}
	if fast.Completed < slow.Completed-3 {
		t.Errorf("short cycles lost completions: %d vs %d", fast.Completed, slow.Completed)
	}
}

func TestLoadSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full runs")
	}
	spec, err := LoadSweepSpec(42, []float64{0.5, 1.25})
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	light, heavy := points[0], points[1]
	if light.MaxMinUtility <= heavy.MaxMinUtility {
		t.Errorf("heavier web load should lower max-min utility: %v vs %v",
			light.MaxMinUtility, heavy.MaxMinUtility)
	}
	if _, err := LoadSweepSpec(42, []float64{0}); err == nil {
		t.Error("zero multiplier accepted")
	}
}

func TestUtilityFnSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full runs")
	}
	points, err := UtilityFnSweepSpec(42).Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points: %d", len(points))
	}
	for _, p := range points {
		if p.FailedActions > 0 {
			t.Errorf("%s: %d failed actions", p.Label, p.FailedActions)
		}
		if p.Completed == 0 {
			t.Errorf("%s: no completions", p.Label)
		}
	}
}

func TestFormatSweep(t *testing.T) {
	s := FormatSweep([]SweepPoint{{Label: "x", MaxMinUtility: 0.5, Completed: 10}})
	if !strings.Contains(s, "x") || !strings.Contains(s, "0.500") {
		t.Errorf("format output: %q", s)
	}
}

func TestEvictionMarginSweepReducesChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full runs")
	}
	spec, err := EvictionMarginSweepSpec(42, []float64{0, 1800})
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	pure, damped := points[0], points[1]
	if damped.Suspends >= pure.Suspends {
		t.Errorf("margin did not reduce suspends: %d vs %d", damped.Suspends, pure.Suspends)
	}
	if damped.MaxMinUtility < pure.MaxMinUtility-0.05 {
		t.Errorf("margin cost too much utility: %v vs %v",
			damped.MaxMinUtility, pure.MaxMinUtility)
	}
	if _, err := EvictionMarginSweepSpec(42, []float64{-1}); err == nil {
		t.Error("negative margin accepted")
	}
}
