package utility

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"slaplace/internal/queueing"
	"slaplace/internal/res"
)

// identicalJobs builds n identical job curves.
func identicalJobs(n int) []Curve {
	out := make([]Curve, n)
	for i := range out {
		out[i] = NewJobCurve("job", 0, res.Work(4500*1000), 4500, 3000, DefaultFunction())
	}
	return out
}

func TestEqualizeIdenticalJobsSplitEvenly(t *testing.T) {
	curves := identicalJobs(4)
	r := Equalize(curves, 8000) // not enough for 4x4500
	var first res.CPU
	for i, s := range r.Shares {
		if i == 0 {
			first = s.Alloc
			continue
		}
		if !res.AlmostEqual(s.Alloc, first) {
			t.Errorf("identical jobs got different allocations: %v vs %v", s.Alloc, first)
		}
	}
	if !res.AlmostEqual(r.Allocated, 8000) {
		t.Errorf("allocated %v of 8000 under contention", r.Allocated)
	}
	// All utilities equal (they share one curve shape).
	for _, s := range r.Shares {
		if math.Abs(s.Utility-r.Equalized) > 1e-6 {
			t.Errorf("utility %v differs from equalized level %v", s.Utility, r.Equalized)
		}
	}
}

func TestEqualizeAbundantCapacitySaturatesAll(t *testing.T) {
	curves := identicalJobs(3)
	r := Equalize(curves, 100000)
	for _, s := range r.Shares {
		if s.Alloc != 4500 {
			t.Errorf("abundant capacity: alloc %v, want speed cap 4500", s.Alloc)
		}
		if math.Abs(s.Utility-1) > 1e-9 {
			t.Errorf("abundant capacity: utility %v, want 1", s.Utility)
		}
	}
	if r.Allocated > 13500+1 {
		t.Errorf("allocated %v, want <= 13500 (leftover stays idle)", r.Allocated)
	}
}

func TestEqualizeZeroCapacity(t *testing.T) {
	curves := identicalJobs(2)
	r := Equalize(curves, 0)
	for _, s := range r.Shares {
		if s.Alloc != 0 {
			t.Errorf("zero capacity allocated %v", s.Alloc)
		}
	}
	if r.Equalized != -1 {
		t.Errorf("equalized level at zero capacity = %v, want floor", r.Equalized)
	}
}

func TestEqualizeEmptyInput(t *testing.T) {
	r := Equalize(nil, 1000)
	if len(r.Shares) != 0 || r.Allocated != 0 || r.Equalized != 0 {
		t.Errorf("empty input: %+v", r)
	}
}

func TestEqualizeNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Equalize(identicalJobs(1), -1)
}

func TestEqualizeUrgentJobGetsMore(t *testing.T) {
	fn := DefaultFunction()
	urgent := NewJobCurve("urgent", 0, res.Work(4500*1000), 4500, 1500, fn) // tight goal
	relaxed := NewJobCurve("relaxed", 0, res.Work(4500*1000), 4500, 9000, fn)
	r := Equalize([]Curve{urgent, relaxed}, 5000)
	ua, _ := r.AllocOf("urgent")
	ra, _ := r.AllocOf("relaxed")
	if ua <= ra {
		t.Errorf("urgent job got %v <= relaxed %v", ua, ra)
	}
	// Their utilities should still be (approximately) equalized when
	// neither is saturated.
	uu := r.Shares[0].Utility
	ru := r.Shares[1].Utility
	if math.Abs(uu-ru) > 0.01 && ua < 4500 && ra < 4500 {
		t.Errorf("utilities not equalized: urgent %v, relaxed %v", uu, ru)
	}
}

func TestEqualizeSaturatedWorkloadCapped(t *testing.T) {
	fn := DefaultFunction()
	// A job whose goal is already unreachable saturates at a negative
	// utility; it must receive exactly its speed cap, and the freed
	// capacity must lift the healthy job higher.
	late := NewJobCurve("late", 10000, res.Work(4500*1000), 4500, 9000, fn)
	ok := NewJobCurve("ok", 10000, res.Work(4500*1000), 4500, 16000, fn)
	r := Equalize([]Curve{late, ok}, 7000)
	la, _ := r.AllocOf("late")
	oa, _ := r.AllocOf("ok")
	if la != 4500 {
		t.Errorf("late job alloc %v, want full speed 4500", la)
	}
	if !res.AlmostEqual(oa, 2500) {
		t.Errorf("healthy job alloc %v, want the 2500 remainder", oa)
	}
}

func TestEqualizeMixedWorkloads(t *testing.T) {
	fn := DefaultFunction()
	m, _ := queueing.NewMG1PS(1350, 4500)
	web := NewTransCurve("web", 100, 3.0, m, fn)
	jobs := identicalJobs(40)
	curves := append([]Curve{web}, jobs...)
	capacity := res.CPU(250000)
	r := Equalize(curves, capacity)

	webU := r.Shares[0].Utility
	jobU := r.Shares[1].Utility
	// Under this contention neither should be saturated; utilities equal.
	if math.Abs(webU-jobU) > 0.02 {
		t.Errorf("web %v vs job %v utility not equalized", webU, jobU)
	}
	if r.Allocated > capacity+1 {
		t.Errorf("over-allocated: %v > %v", r.Allocated, capacity)
	}
	// The allocation split must be uneven in CPU terms (paper's point):
	// equal utility != equal capacity.
	webA := r.Shares[0].Alloc
	jobA := r.Shares[1].Alloc
	if res.AlmostEqual(webA, jobA) {
		t.Errorf("web and a single job received equal CPU %v — utility equalization should differ from capacity equalization", webA)
	}
}

func TestEqualizeMoreJobsLowersUtility(t *testing.T) {
	capacity := res.CPU(100000)
	few := Equalize(identicalJobs(10), capacity)
	many := Equalize(identicalJobs(80), capacity)
	if many.Equalized >= few.Equalized {
		t.Errorf("crowding did not lower utility: %v (80 jobs) >= %v (10 jobs)",
			many.Equalized, few.Equalized)
	}
}

func TestMeanUtility(t *testing.T) {
	curves := identicalJobs(4)
	r := Equalize(curves, 9000)
	mean := r.MeanUtility(nil)
	if math.Abs(mean-r.Equalized) > 1e-6 {
		t.Errorf("mean %v != equalized %v for identical curves", mean, r.Equalized)
	}
	none := r.MeanUtility(func(Curve) bool { return false })
	if none != 0 {
		t.Errorf("mean over empty filter = %v", none)
	}
}

func TestAllocOf(t *testing.T) {
	fn := DefaultFunction()
	a := NewJobCurve("a", 0, res.Work(1000), 4500, 100, fn)
	r := Equalize([]Curve{a}, 1000)
	if _, ok := r.AllocOf("a"); !ok {
		t.Error("AllocOf missed present curve")
	}
	if _, ok := r.AllocOf("zzz"); ok {
		t.Error("AllocOf found absent curve")
	}
}

func TestTotalDemandAndMaxUseful(t *testing.T) {
	curves := identicalJobs(3)
	if got := MaxUsefulTotal(curves); got != 13500 {
		t.Errorf("MaxUsefulTotal = %v, want 13500", got)
	}
	d := TotalDemandFor(curves, 0) // on-goal demand: remaining/goal each
	want := res.CPU(3 * 4500 * 1000 / 3000)
	if !res.AlmostEqual(d, want) {
		t.Errorf("TotalDemandFor(0) = %v, want %v", d, want)
	}
}

// Property: equalization never over-allocates and never hands any
// workload more than its max useful demand.
func TestEqualizeFeasibilityProperty(t *testing.T) {
	fn := DefaultFunction()
	f := func(nJobs uint8, capRaw uint32) bool {
		n := int(nJobs%20) + 1
		capacity := res.CPU(capRaw % 300000)
		curves := make([]Curve, n)
		for i := range curves {
			// Vary goals so saturation rounds trigger.
			goal := 1000 + float64(i)*700
			curves[i] = NewJobCurve("j", 0, res.Work(4500*1000), 4500, goal, fn)
		}
		r := Equalize(curves, capacity)
		if r.Allocated > capacity*(1+1e-9)+1e-9 {
			return false
		}
		for _, s := range r.Shares {
			if s.Alloc < 0 || s.Alloc > s.Curve.MaxUseful()*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: the equalized (max-min) level is non-decreasing in capacity.
func TestEqualizeMonotoneInCapacityProperty(t *testing.T) {
	curves := identicalJobs(12)
	f := func(a, b uint32) bool {
		ca, cb := res.CPU(a%200000), res.CPU(b%200000)
		if ca > cb {
			ca, cb = cb, ca
		}
		ra := Equalize(curves, ca)
		rb := Equalize(curves, cb)
		return ra.Equalized <= rb.Equalized+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}
