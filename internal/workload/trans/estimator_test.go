package trans

import (
	"math"
	"testing"

	"slaplace/internal/rng"
)

func TestEstimatorConvergesToConstantRate(t *testing.T) {
	est := NewLambdaEstimator(0.5)
	noise := rng.NewSource(3).Stream("est")
	pattern := Constant{Rate: 65}
	var last float64
	for i := 0; i < 50; i++ {
		t0 := float64(i) * 600
		last = est.Observe(pattern, t0, t0+600, noise)
	}
	if relErr(last, 65) > 0.05 {
		t.Errorf("estimate %v after 50 windows, want ≈65", last)
	}
}

func TestEstimatorTracksStepChange(t *testing.T) {
	est := NewLambdaEstimator(0.5)
	noise := rng.NewSource(4).Stream("est")
	pattern, err := NewStep([]float64{0, 30000}, []float64{20, 80})
	if err != nil {
		t.Fatal(err)
	}
	var before, after float64
	for i := 0; i < 100; i++ {
		t0 := float64(i) * 600
		v := est.Observe(pattern, t0, t0+600, noise)
		if t0+600 <= 30000 {
			before = v
		}
		after = v
	}
	if relErr(before, 20) > 0.1 {
		t.Errorf("pre-step estimate %v, want ≈20", before)
	}
	if relErr(after, 80) > 0.1 {
		t.Errorf("post-step estimate %v, want ≈80", after)
	}
}

func TestEstimatorNoNoiseIsExact(t *testing.T) {
	est := NewLambdaEstimator(1.0) // no smoothing
	v := est.Observe(Constant{Rate: 42}, 0, 600, nil)
	if math.Abs(v-42) > 1e-9 {
		t.Errorf("noiseless estimate %v, want exactly 42", v)
	}
}

func TestEstimatorIntegratesWithinWindow(t *testing.T) {
	// A step in the middle of the window: mass = 300×10 + 300×50 =
	// 18000 -> rate 30.
	est := NewLambdaEstimator(1.0)
	pattern, _ := NewStep([]float64{0, 300}, []float64{10, 50})
	v := est.Observe(pattern, 0, 600, nil)
	// One trapezoid (75 s wide) straddles the discontinuity, over-
	// counting by ≤ (50-10)/2 × 75 / 600 = 2.5 req/s.
	if math.Abs(v-30) > 2.6 {
		t.Errorf("window-integrated estimate %v, want ≈30", v)
	}
}

func TestEstimatorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("alpha 0", func() { NewLambdaEstimator(0) })
	mustPanic("alpha > 1", func() { NewLambdaEstimator(1.5) })
	mustPanic("inverted window", func() {
		NewLambdaEstimator(0.5).Observe(Constant{Rate: 1}, 10, 5, nil)
	})
}

func TestEstimateBeforeObservation(t *testing.T) {
	est := NewLambdaEstimator(0.5)
	if v, ok := est.estimate, est.primed; ok || v != 0 {
		t.Errorf("unprimed estimate = (%v, %v)", v, ok)
	}
}

func TestMonitoredLambdaThroughApp(t *testing.T) {
	eng, _, rt := rig(t)
	_ = eng
	cfg := testConfig(t)
	cfg.EstimateLambda = true
	cfg.EWMAAlpha = 0.5
	cfg.Pattern = Constant{Rate: 40}
	app, err := rt.Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Several monitoring windows should land near the true rate.
	var v float64
	for i := 0; i < 30; i++ {
		v = app.MonitoredLambda(float64(i)*600, float64(i+1)*600)
	}
	if relErr(v, 40) > 0.15 {
		t.Errorf("monitored lambda %v, want ≈40", v)
	}
	// Degenerate window falls back to the oracle.
	if got := app.MonitoredLambda(600, 600); got != 40 {
		t.Errorf("degenerate window returned %v", got)
	}
	// Without estimation the oracle is returned directly.
	cfg2 := testConfig(t)
	cfg2.ID = "oracle"
	cfg2.Pattern = Constant{Rate: 17}
	app2, _ := rt.Deploy(cfg2)
	if got := app2.MonitoredLambda(0, 600); got != 17 {
		t.Errorf("oracle app monitored lambda %v, want 17", got)
	}
}

// relErr is |got-want|/want, or |got| when want is 0.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}
