package forecast

import (
	"math"
	"reflect"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config (all defaults): %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	bad := []Config{
		{Predictor: "arima"},
		{Window: -1},
		{Window: maxWindow + 1},
		{HoltAlpha: 1.5},
		{HoltAlpha: -0.1},
		{HoltBeta: 2},
		{AROrder: -2},
		{AROrder: 8, Window: 16}, // needs window >= 17
		{CorrectionAlpha: 1.5},
		{CorrectionAlpha: -0.5},
		{CorrectionAlpha: math.NaN()},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v validated; want error", c)
		}
	}
}

func TestConstantPredictsLast(t *testing.T) {
	p := Constant{}
	if got := p.Predict(nil); got != 0 {
		t.Fatalf("empty series: %v, want 0", got)
	}
	if got := p.Predict([]float64{3, 9, 4}); got != 4 {
		t.Fatalf("got %v, want 4", got)
	}
}

func TestHoltTracksRamp(t *testing.T) {
	h := Holt{Alpha: 0.5, Beta: 0.3}
	// Perfect linear ramp: the one-step-ahead forecast must beat the
	// last observed value (which is what a reactive controller uses).
	series := make([]float64, 12)
	for i := range series {
		series[i] = 10 + 5*float64(i)
	}
	next := 10 + 5*float64(len(series))
	got := h.Predict(series)
	last := series[len(series)-1]
	if math.Abs(got-next) >= math.Abs(last-next) {
		t.Fatalf("holt %v is no closer to %v than last value %v", got, next, last)
	}
}

func TestHoltNeverNegative(t *testing.T) {
	h := Holt{Alpha: 0.9, Beta: 0.9}
	// A crashing series extrapolates below zero; the contract clamps.
	if got := h.Predict([]float64{100, 50, 10, 1}); got < 0 {
		t.Fatalf("negative prediction %v", got)
	}
}

func TestWindowARFitsLinearRamp(t *testing.T) {
	a := WindowAR{Order: 2}
	series := make([]float64, 16)
	for i := range series {
		series[i] = 4 + 3*float64(i)
	}
	next := 4 + 3*float64(len(series))
	got := a.Predict(series)
	if math.Abs(got-next) > 0.5 {
		t.Fatalf("AR predicted %v for a clean ramp, want ~%v", got, next)
	}
}

func TestWindowARFallsBackOnShortSeries(t *testing.T) {
	a := WindowAR{Order: 3}
	series := []float64{5, 6, 7} // < 2p+1 observations
	if got := a.Predict(series); got != 7 {
		t.Fatalf("short-series fallback: %v, want last value 7", got)
	}
}

func TestWindowARConstantSeries(t *testing.T) {
	a := WindowAR{Order: 3}
	series := make([]float64, 16)
	for i := range series {
		series[i] = 42
	}
	got := a.Predict(series)
	if math.Abs(got-42) > 1 {
		t.Fatalf("constant series predicted %v, want ~42", got)
	}
}

func TestSurgeCap(t *testing.T) {
	h := Holt{Alpha: 1, Beta: 1}
	// An explosive series must not extrapolate past surgeCap x max.
	series := []float64{1, 10, 100, 1000}
	if got := h.Predict(series); got > surgeCap*1000 {
		t.Fatalf("prediction %v exceeds surge cap %v", got, surgeCap*1000)
	}
}

func TestCorrectorConvergesOnBias(t *testing.T) {
	c := NewCorrector(0.5)
	// The model persistently predicts half the observed demand; the
	// factor should climb toward the 2x clamp.
	for i := 0; i < 32; i++ {
		c.Observe(50, 100)
	}
	if got := c.Factor(); got < 1.8 {
		t.Fatalf("factor %v after persistent 2x underprediction, want near %v", got, CorrectionMax)
	}
	if c.samples != 32 {
		t.Fatalf("samples %d, want 32", c.samples)
	}
}

func TestCorrectorDisabledAndDegenerate(t *testing.T) {
	var zero Corrector
	zero.Observe(10, 20)
	if zero.Factor() != 1 {
		t.Fatalf("zero-value corrector factor %v, want 1", zero.Factor())
	}
	c := NewCorrector(0.5)
	c.Observe(0, 100)          // no ratio from a zero prediction
	c.Observe(10, math.Inf(1)) // non-finite observation ignored
	c.Observe(math.NaN(), 10)  // non-finite prediction ignored
	if c.Factor() != 1 || c.samples != 0 {
		t.Fatalf("degenerate feedback moved the factor: %v (%d samples)", c.Factor(), c.samples)
	}
}

func TestForecasterFirstCyclePassesThrough(t *testing.T) {
	f, err := New(Config{Predictor: PredictorHolt})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Forecast("web", 100, 25); got != 25 {
		t.Fatalf("first observation forecast %v, want pass-through 25", got)
	}
}

func TestForecasterReplaySameCycle(t *testing.T) {
	f, err := New(Config{Predictor: PredictorHolt})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		f.Forecast("web", float64(100*i), 10+float64(5*i))
	}
	p1 := f.Forecast("web", 500, 35)
	p2 := f.Forecast("web", 500, 35)
	p3 := f.Forecast("web", 500, 9999) // replay ignores the new value
	if p1 != p2 || p1 != p3 {
		t.Fatalf("replay diverged: %v, %v, %v", p1, p2, p3)
	}
	st := f.Export()
	if st.Apps[0].HasPred && len(st.Apps[0].History) > 5 {
		t.Fatalf("replay grew the history: %d entries", len(st.Apps[0].History))
	}
}

func TestForecasterTimeRegressionPassesThrough(t *testing.T) {
	f, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.Forecast("web", 200, 10)
	before := f.Export()
	if got := f.Forecast("web", 100, 77); got != 77 {
		t.Fatalf("regressed call forecast %v, want pass-through 77", got)
	}
	if !reflect.DeepEqual(before, f.Export()) {
		t.Fatal("time regression mutated forecaster state")
	}
}

func TestForecasterWindowBound(t *testing.T) {
	f, err := New(Config{Predictor: PredictorConstant, Window: 4, AROrder: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f.Forecast("web", float64(i), float64(i))
	}
	st := f.Export() // pre-cycle stash: 19 observations, windowed to 4
	if got := st.Apps[0].History; !reflect.DeepEqual(got, []float64{15, 16, 17, 18}) {
		t.Fatalf("window ring = %v, want [15 16 17 18]", got)
	}
}

// TestExportRestoreRoundTrip: export → restore → identical next-cycle
// forecast, the checkpoint contract end to end.
func TestExportRestoreRoundTrip(t *testing.T) {
	for _, pred := range []string{PredictorConstant, PredictorHolt, PredictorAR} {
		cfg := Config{Predictor: pred, CorrectionAlpha: 0.25}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A ramp with a kink, two apps, so histories and correction
		// factors are all non-trivial.
		for i := 0; i < 24; i++ {
			now := float64(600 * i)
			f.Forecast("web", now, 10+2*float64(i))
			f.Forecast("store", now, 80-float64(i))
		}
		st := f.Export()
		g, err := Restore(st)
		if err != nil {
			t.Fatalf("%s: restore: %v", pred, err)
		}
		// The restored forecaster must replay the stashed cycle (the
		// restore re-plan path) and then forecast the next cycle
		// identically.
		for i := 23; i < 30; i++ {
			now := float64(600 * i)
			obsW, obsS := 10+2*float64(i), 80-float64(i)
			if a, b := f.Forecast("web", now, obsW), g.Forecast("web", now, obsW); a != b {
				t.Fatalf("%s: web forecast diverged at cycle %d: %v vs %v", pred, i, a, b)
			}
			if a, b := f.Forecast("store", now, obsS), g.Forecast("store", now, obsS); a != b {
				t.Fatalf("%s: store forecast diverged at cycle %d: %v vs %v", pred, i, a, b)
			}
		}
		if !reflect.DeepEqual(f.Export(), g.Export()) {
			t.Fatalf("%s: exported states diverged after identical cycles", pred)
		}
	}
}

func TestStateValidate(t *testing.T) {
	valid := &State{Config: DefaultConfig(), HasNow: true, LastNow: 600,
		Apps: []AppState{{ID: "a", History: []float64{1, 2}, Factor: 1}}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid state: %v", err)
	}
	bad := []*State{
		{Config: Config{Predictor: "bogus"}},
		{Config: DefaultConfig(), HasNow: true, LastNow: math.Inf(1)},
		{Config: DefaultConfig(), Apps: []AppState{{ID: ""}}},
		{Config: DefaultConfig(), Apps: []AppState{{ID: "b"}, {ID: "a"}}}, // unsorted
		{Config: DefaultConfig(), Apps: []AppState{{ID: "a", History: []float64{-1}}}},
		{Config: DefaultConfig(), Apps: []AppState{{ID: "a", History: []float64{math.NaN()}}}},
		{Config: DefaultConfig(), Apps: []AppState{{ID: "a", Factor: 9}}},
		{Config: DefaultConfig(), Apps: []AppState{{ID: "a", CorrectionSamples: -1}}},
		{Config: DefaultConfig(), Apps: []AppState{{ID: "a", HasPred: true, Pred: -2}}},
		{Config: Config{Window: 4, AROrder: 1}, Apps: []AppState{
			{ID: "a", History: []float64{1, 2, 3, 4, 5}}}}, // history > window
	}
	for i, st := range bad {
		if err := st.Validate(); err == nil {
			t.Errorf("bad state %d validated", i)
		}
	}
}

func TestForecasterSanitizesObservations(t *testing.T) {
	f, err := New(Config{Predictor: PredictorConstant})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{math.NaN(), math.Inf(1), -5} {
		got := f.Forecast("web", float64(i), v)
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Fatalf("observation %v produced forecast %v", v, got)
		}
	}
}
