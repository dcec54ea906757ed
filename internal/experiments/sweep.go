package experiments

import (
	"fmt"
	"math"
	"strings"

	"slaplace/internal/core"
	"slaplace/internal/utility"
	"slaplace/internal/workload/trans"
)

// MaxMinUtility is the paper's objective read off a finished run: the
// minimum, after the warm-up prefix, over every workload's recorded
// utility series (measured web utility and mean hypothetical job
// utility).
func MaxMinUtility(r *Result, warmup float64) float64 {
	min := math.Inf(1)
	for _, name := range r.Recorder.SeriesNames() {
		isJob := name == "jobs/hypoUtility"
		isWeb := strings.HasPrefix(name, "trans/") && strings.HasSuffix(name, "/utility")
		if !isJob && !isWeb {
			continue
		}
		for _, p := range r.Recorder.Series(name).Window(warmup, math.Inf(1)) {
			if p.V < min {
				min = p.V
			}
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// SweepPoint is one sweep configuration's aggregate outcome.
type SweepPoint struct {
	Label          string
	Param          float64
	MaxMinUtility  float64
	CompletionU    float64 // mean completion utility over all classes
	Completed      int
	GoalViolations int
	Suspends       int
	Migrations     int
	FailedActions  int
}

// pointFrom extracts a sweep point from a result.
func pointFrom(label string, param float64, r *Result) SweepPoint {
	var uSum float64
	var n int
	for _, cs := range r.ClassStats {
		uSum += cs.MeanCompletionUtility * float64(cs.Completed)
		n += cs.Completed
	}
	p := SweepPoint{
		Label:          label,
		Param:          param,
		MaxMinUtility:  MaxMinUtility(r, 1200),
		Completed:      r.JobStats.Completed,
		GoalViolations: r.JobStats.GoalViolations,
		Suspends:       r.VMCounters.Suspends,
		Migrations:     r.VMCounters.Migrations,
		FailedActions:  r.FailedActions,
	}
	if n > 0 {
		p.CompletionU = uSum / float64(n)
	}
	return p
}

// CycleSweepSpec declares the control-cycle sensitivity sweep (the
// paper fixes 600 s; this quantifies what that choice costs or buys).
// Each period reruns the shortened paper workload with an identical
// arrival trace.
func CycleSweepSpec(seed uint64, periods []float64) SweepSpec {
	if len(periods) == 0 {
		periods = []float64{150, 300, 600, 1200, 2400}
	}
	spec := SweepSpec{Name: "cycle"}
	for _, period := range periods {
		sc := PaperScenario(seed)
		sc.Name = fmt.Sprintf("sweep/cycle/%.0f", period)
		sc.Horizon = 36000
		sc.Loop.CyclePeriod = period
		sc.Loop.FirstCycle = 60
		spec.Variants = append(spec.Variants, SweepVariant{
			Label: fmt.Sprintf("cycle=%.0fs", period), Param: period, Scenario: sc,
		})
	}
	return spec
}

// UtilityFnSweepSpec declares the utility-function comparison (the
// paper uses monotonic continuous functions and cites alternatives):
// linear against increasingly steep sigmoids, applied to both workload
// types.
func UtilityFnSweepSpec(seed uint64) SweepSpec {
	type variant struct {
		label string
		param float64
		fn    utility.Function
	}
	variants := []variant{
		{"linear", 0, utility.Linear{Floor: -1}},
		{"sigmoid k=2", 2, utility.Sigmoid{K: 2}},
		{"sigmoid k=6", 6, utility.Sigmoid{K: 6}},
		{"sigmoid k=12", 12, utility.Sigmoid{K: 12}},
	}
	spec := SweepSpec{Name: "utility-fn"}
	for _, v := range variants {
		sc := PaperScenario(seed)
		sc.Name = "sweep/fn/" + v.label
		sc.Horizon = 36000
		for i := range sc.Jobs {
			sc.Jobs[i].Class.Fn = v.fn
		}
		for i := range sc.Apps {
			sc.Apps[i].Fn = v.fn
		}
		spec.Variants = append(spec.Variants, SweepVariant{
			Label: v.label, Param: v.param, Scenario: sc,
		})
	}
	return spec
}

// LoadSweepSpec declares the transactional-load sweep: the arrival
// rate scales across a range of multipliers while the job stream holds
// fixed — how does the equalizer shift capacity as the web tier's
// weight grows?
func LoadSweepSpec(seed uint64, multipliers []float64) (SweepSpec, error) {
	if len(multipliers) == 0 {
		multipliers = []float64{0.25, 0.5, 0.75, 1.0, 1.25}
	}
	spec := SweepSpec{Name: "load"}
	for _, m := range multipliers {
		if m <= 0 {
			return SweepSpec{}, fmt.Errorf("experiments: non-positive load multiplier %v", m)
		}
		sc := PaperScenario(seed)
		sc.Name = fmt.Sprintf("sweep/load/%.2f", m)
		sc.Horizon = 36000
		for i := range sc.Apps {
			sc.Apps[i].Pattern = trans.Constant{Rate: PaperWebLambda * m}
		}
		spec.Variants = append(spec.Variants, SweepVariant{
			Label: fmt.Sprintf("load×%.2f", m), Param: m, Scenario: sc,
		})
	}
	return spec, nil
}

// EvictionMarginSweepSpec declares the suspension-hysteresis sweep:
// the margin trades equalization granularity (time-sharing memory
// slots among equally-urgent jobs) against suspend/resume churn.
func EvictionMarginSweepSpec(seed uint64, margins []float64) (SweepSpec, error) {
	if len(margins) == 0 {
		margins = []float64{0, 600, 1800, 3600}
	}
	spec := SweepSpec{Name: "eviction-margin"}
	for _, m := range margins {
		if m < 0 {
			return SweepSpec{}, fmt.Errorf("experiments: negative eviction margin %v", m)
		}
		cfg := core.DefaultConfig()
		cfg.EvictionMargin = m
		sc := PaperScenario(seed)
		sc.Name = fmt.Sprintf("sweep/margin/%.0f", m)
		sc.Horizon = 36000
		sc.Controller = core.New(cfg)
		spec.Variants = append(spec.Variants, SweepVariant{
			Label: fmt.Sprintf("margin=%.0fs", m), Param: m, Scenario: sc,
		})
	}
	return spec, nil
}

// FormatSweep renders sweep points as an aligned text table.
func FormatSweep(points []SweepPoint) string {
	s := fmt.Sprintf("%-14s %10s %10s %10s %6s %9s %11s\n",
		"variant", "maxminU", "complU", "completed", "viol", "suspends", "migrations")
	for _, p := range points {
		s += fmt.Sprintf("%-14s %10.3f %10.3f %10d %6d %9d %11d\n",
			p.Label, p.MaxMinUtility, p.CompletionU, p.Completed,
			p.GoalViolations, p.Suspends, p.Migrations)
	}
	return s
}
