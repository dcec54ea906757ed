package utility

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearEval(t *testing.T) {
	l := Linear{Floor: -1}
	cases := []struct{ p, want float64 }{
		{0.5, 0.5}, {1.5, 1}, {-0.3, -0.3}, {-5, -1}, {1, 1}, {-1, -1},
	}
	for _, c := range cases {
		if got := l.Eval(c.p); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestLinearInvert(t *testing.T) {
	l := Linear{Floor: -1}
	if got := l.Invert(0.5); got != 0.5 {
		t.Errorf("Invert(0.5) = %v", got)
	}
	if got := l.Invert(-1); !math.IsInf(got, -1) {
		t.Errorf("Invert(floor) = %v, want -Inf", got)
	}
	if got := l.Invert(1.5); !math.IsInf(got, 1) {
		t.Errorf("Invert(1.5) = %v, want +Inf", got)
	}
}

func TestSigmoidEndpoints(t *testing.T) {
	s := Sigmoid{K: 8}
	if got := s.Eval(0); got != 0 {
		t.Errorf("Eval(0) = %v", got)
	}
	if got := s.Eval(1); got != 1 {
		t.Errorf("Eval(1) = %v", got)
	}
	if got := s.Eval(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Eval(0.5) = %v, want 0.5 by symmetry", got)
	}
	if got := s.Eval(-3); got != 0 {
		t.Errorf("Eval(-3) = %v, want clamp at 0", got)
	}
}

func TestSigmoidInvertRoundTrip(t *testing.T) {
	s := Sigmoid{K: 6}
	for _, u := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		p := s.Invert(u)
		if got := s.Eval(p); math.Abs(got-u) > 1e-9 {
			t.Errorf("Eval(Invert(%v)) = %v", u, got)
		}
	}
	if got := s.Invert(0); !math.IsInf(got, -1) {
		t.Errorf("Invert(0) = %v, want -Inf", got)
	}
	if got := s.Invert(1); got != 1 {
		t.Errorf("Invert(1) = %v, want 1", got)
	}
}

func TestSigmoidPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for K=0")
		}
	}()
	Sigmoid{}.Eval(0.5)
}

func TestPiecewiseValidation(t *testing.T) {
	if _, err := NewPiecewise([]Point{{0, 0}}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := NewPiecewise([]Point{{0, 0}, {0, 1}}); err == nil {
		t.Error("duplicate P accepted")
	}
	if _, err := NewPiecewise([]Point{{0, 1}, {1, 0}}); err == nil {
		t.Error("decreasing U accepted")
	}
	if _, err := NewPiecewise([]Point{{1, 1}, {0, 0}}); err != nil {
		t.Errorf("unsorted-but-valid points rejected: %v", err)
	}
}

func TestPiecewiseEvalAndInvert(t *testing.T) {
	pw, err := NewPiecewise([]Point{{-1, 0}, {0, 0.2}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ p, want float64 }{
		{-2, 0}, {-1, 0}, {-0.5, 0.1}, {0, 0.2}, {0.5, 0.6}, {1, 1}, {2, 1},
	}
	for _, c := range cases {
		if got := pw.Eval(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	for _, u := range []float64{0.1, 0.2, 0.5, 0.9} {
		p := pw.Invert(u)
		if got := pw.Eval(p); math.Abs(got-u) > 1e-9 {
			t.Errorf("Eval(Invert(%v)) = %v", u, got)
		}
	}
	if got := pw.Invert(0); !math.IsInf(got, -1) {
		t.Errorf("Invert at bottom = %v, want -Inf", got)
	}
	if got := pw.Invert(1.1); !math.IsInf(got, 1) {
		t.Errorf("Invert above top = %v, want +Inf", got)
	}
}

// Property: every Function implementation is monotone non-decreasing.
func TestFunctionMonotonicityProperty(t *testing.T) {
	pw, _ := NewPiecewise([]Point{{-1, -0.5}, {0, 0}, {0.5, 0.8}, {1, 1}})
	fns := []Function{Linear{Floor: -1}, Sigmoid{K: 5}, pw}
	for _, fn := range fns {
		fn := fn
		f := func(a, b int16) bool {
			pa, pb := float64(a)/8000, float64(b)/8000
			if pa > pb {
				pa, pb = pb, pa
			}
			return fn.Eval(pa) <= fn.Eval(pb)+1e-12
		}
		if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
			t.Errorf("%s not monotone: %v", fn.Name(), err)
		}
	}
}

// Property: Invert is a left inverse wherever utility is achievable.
func TestInvertLeftInverseProperty(t *testing.T) {
	fns := []Function{Linear{Floor: -1}, Sigmoid{K: 4}}
	for _, fn := range fns {
		fn := fn
		f := func(raw uint16) bool {
			u := float64(raw%1000)/1000*0.98 + 0.01
			p := fn.Invert(u)
			return math.Abs(fn.Eval(p)-u) < 1e-9
		}
		if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(2))}); err != nil {
			t.Errorf("%s: %v", fn.Name(), err)
		}
	}
}

func TestNames(t *testing.T) {
	pw, _ := NewPiecewise([]Point{{0, 0}, {1, 1}})
	for _, fn := range []Function{Linear{Floor: -1}, Sigmoid{K: 2}, pw} {
		if fn.Name() == "" {
			t.Errorf("%T has empty name", fn)
		}
	}
}
