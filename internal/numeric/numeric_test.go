package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBisectMonotoneFindsRoot(t *testing.T) {
	f := func(x float64) float64 { return x * x } // monotone on [0, 10]
	got := BisectMonotone(f, 2, 0, 10, 1e-12)
	if math.Abs(got-math.Sqrt2) > 1e-9 {
		t.Errorf("sqrt(2) via bisection = %v", got)
	}
}

func TestBisectSaturatesAtBounds(t *testing.T) {
	f := func(x float64) float64 { return x }
	if got := BisectMonotone(f, 100, 0, 10, 1e-9); got != 10 {
		t.Errorf("target above range: %v, want hi", got)
	}
	if got := BisectMonotone(f, -5, 0, 10, 1e-9); got != 0 {
		t.Errorf("target below range: %v, want lo", got)
	}
}

func TestBisectPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("inverted interval", func() {
		BisectMonotone(func(x float64) float64 { return x }, 0, 5, 1, 1e-9)
	})
	mustPanic("NaN bound", func() {
		BisectMonotone(func(x float64) float64 { return x }, 0, math.NaN(), 1, 1e-9)
	})
}

func TestBisectDecreasing(t *testing.T) {
	f := func(x float64) float64 { return 1 / x }
	got := BisectDecreasing(f, 0.25, 1, 100, 1e-12)
	if math.Abs(got-4) > 1e-8 {
		t.Errorf("1/x = 0.25 at %v, want 4", got)
	}
}

// Property: the returned point's function value is within tolerance of
// the target whenever the target is bracketed.
func TestBisectAccuracyProperty(t *testing.T) {
	f := func(seed uint32) bool {
		target := float64(seed%1000)/100 + 0.1 // 0.1 .. 10.1
		fn := func(x float64) float64 { return math.Exp(x) - 1 }
		hi := 5.0
		if fn(hi) < target {
			return true // out of range; saturation tested elsewhere
		}
		x := BisectMonotone(fn, target, 0, hi, 1e-12)
		return math.Abs(fn(x)-target) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestClamps(t *testing.T) {
	if Clamp01(-0.5) != 0 || Clamp01(1.5) != 1 || Clamp01(0.25) != 0.25 {
		t.Error("Clamp01 broken")
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp broken")
	}
}

func TestClampPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Clamp(1, 3, 0)
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1e6, 1e6+0.1, 1e-6) {
		t.Error("rejects tiny relative diff")
	}
	if ApproxEqual(1, 2, 1e-6) {
		t.Error("accepts gross diff")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean broken")
	}
}

func TestWeightedMean(t *testing.T) {
	if got := WeightedMean([]float64{1, 3}, []float64{1, 1}); got != 2 {
		t.Errorf("WeightedMean equal weights = %v", got)
	}
	if got := WeightedMean([]float64{1, 3}, []float64{3, 1}); got != 1.5 {
		t.Errorf("WeightedMean = %v, want 1.5", got)
	}
	if got := WeightedMean([]float64{1, 3}, []float64{0, 0}); got != 0 {
		t.Errorf("WeightedMean zero weights = %v, want 0", got)
	}
}

func TestWeightedMeanPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	WeightedMean([]float64{1}, []float64{1, 2})
}
