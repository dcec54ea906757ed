package trans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	p := Constant{Rate: 105}
	if p.Lambda(0) != 105 || p.Lambda(99999) != 105 {
		t.Error("constant pattern not constant")
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestConstantNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Constant{Rate: -1}.Lambda(0)
}

func TestStep(t *testing.T) {
	p, err := NewStep([]float64{0, 100, 200}, []float64{10, 50, 20})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{-5, 10}, {0, 10}, {50, 10}, {100, 50}, {150, 50}, {200, 20}, {1e9, 20},
	}
	for _, c := range cases {
		if got := p.Lambda(c.t); got != c.want {
			t.Errorf("Lambda(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestStepValidation(t *testing.T) {
	if _, err := NewStep(nil, nil); err == nil {
		t.Error("empty step accepted")
	}
	if _, err := NewStep([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewStep([]float64{5, 1}, []float64{1, 2}); err == nil {
		t.Error("unsorted times accepted")
	}
	if _, err := NewStep([]float64{0}, []float64{-1}); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestDiurnal(t *testing.T) {
	p := Diurnal{Base: 100, Amplitude: 50, Period: 86400}
	if got := p.Lambda(0); math.Abs(got-100) > 1e-9 {
		t.Errorf("Lambda(0) = %v, want base", got)
	}
	if got := p.Lambda(86400 / 4); math.Abs(got-150) > 1e-9 {
		t.Errorf("Lambda(peak) = %v, want 150", got)
	}
	// Never negative even when amplitude exceeds base.
	deep := Diurnal{Base: 10, Amplitude: 50, Period: 1000}
	if got := deep.Lambda(750); got != 0 {
		t.Errorf("Lambda(trough) = %v, want clamp at 0", got)
	}
}

func TestDiurnalPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Diurnal{Base: 1, Period: 0}.Lambda(0)
}

func TestTraceInterpolation(t *testing.T) {
	p, err := NewTrace([]float64{0, 100, 200}, []float64{0, 100, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{-10, 0}, {0, 0}, {50, 50}, {100, 100}, {150, 50}, {200, 0}, {500, 0},
	}
	for _, c := range cases {
		if got := p.Lambda(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Lambda(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace([]float64{0}, []float64{1}); err == nil {
		t.Error("single-sample trace accepted")
	}
	if _, err := NewTrace([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("duplicate times accepted")
	}
	if _, err := NewTrace([]float64{0, 1}, []float64{1, -2}); err == nil {
		t.Error("negative rate accepted")
	}
}

// Property: all patterns return non-negative rates everywhere.
func TestPatternsNonNegativeProperty(t *testing.T) {
	step, _ := NewStep([]float64{0, 10, 20}, []float64{5, 0, 9})
	trace, _ := NewTrace([]float64{0, 50, 100}, []float64{3, 8, 1})
	pats := []LoadPattern{
		Constant{Rate: 7},
		step,
		Diurnal{Base: 5, Amplitude: 20, Period: 500},
		trace,
	}
	for _, p := range pats {
		p := p
		f := func(raw int32) bool {
			return p.Lambda(float64(raw)) >= 0
		}
		if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}
