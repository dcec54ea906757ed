package utility

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"slaplace/internal/queueing"
	"slaplace/internal/res"
)

// testJob returns a job curve with 4500-MHz speed cap and an ideal
// duration of 1000 s, due at now+3000 (comfortable slack).
func testJob(t *testing.T) *JobCurve {
	t.Helper()
	return NewJobCurve("job", 0, res.Work(4500*1000), 4500, 3000, DefaultFunction())
}

func TestJobCurveFullSpeedUtility(t *testing.T) {
	c := testJob(t)
	// At full speed: ct = 1000, goal 3000, window = 2000 -> p = 1.
	if got := c.MaxUtility(); math.Abs(got-1) > 1e-12 {
		t.Errorf("MaxUtility = %v, want 1", got)
	}
	if got := c.MaxUseful(); got != 4500 {
		t.Errorf("MaxUseful = %v", got)
	}
}

func TestJobCurveOnGoalAllocation(t *testing.T) {
	c := testJob(t)
	// Completing exactly at the goal needs remaining/goal = 4.5e6/3000 = 1500 MHz.
	u := c.UtilityAt(1500)
	if math.Abs(u) > 1e-9 {
		t.Errorf("utility at exactly-on-goal allocation = %v, want 0", u)
	}
}

func TestJobCurveZeroAllocHitsFloor(t *testing.T) {
	c := testJob(t)
	if got := c.UtilityAt(0); got != -1 {
		t.Errorf("utility at zero = %v, want floor -1", got)
	}
}

func TestJobCurveDemandForRoundTrip(t *testing.T) {
	c := testJob(t)
	for _, u := range []float64{-0.5, 0, 0.3, 0.7, 0.95} {
		d := c.DemandFor(u)
		got := c.UtilityAt(d)
		if math.Abs(got-u) > 1e-6 {
			t.Errorf("DemandFor(%v) = %v -> utility %v", u, d, got)
		}
	}
	if d := c.DemandFor(2); d != c.MaxUseful() {
		t.Errorf("demand for impossible utility = %v, want cap", d)
	}
	if d := c.DemandFor(-1); d != 0 {
		t.Errorf("demand for floor utility = %v, want 0", d)
	}
}

func TestJobCurveAllocBeyondCapWasted(t *testing.T) {
	c := testJob(t)
	if c.UtilityAt(9000) != c.UtilityAt(4500) {
		t.Error("allocation beyond speed cap changed utility")
	}
}

func TestJobCurveLateJobStillOrdered(t *testing.T) {
	// Slightly unreachable goal: ctMin = 11000, goal 10980 ⇒ the window
	// floors at 10% of the ideal duration (100 s) and full speed gives
	// p = -0.2. Utility is negative but still increases with allocation
	// in this regime.
	c := NewJobCurve("late", 10000, res.Work(4500*1000), 4500, 10980, DefaultFunction())
	uFull := c.UtilityAt(4500)
	uNear := c.UtilityAt(4275) // 95% speed
	if uFull <= uNear {
		t.Errorf("late job utility not increasing: full %v <= 95%% %v", uFull, uNear)
	}
	if uFull >= 0 {
		t.Errorf("unreachable goal gave non-negative utility %v", uFull)
	}
}

func TestJobCurveHopelessJobFlatAtFloor(t *testing.T) {
	// A job far past its goal clamps to the utility floor at every
	// allocation; the equalizer's saturation path (not the curve) is
	// what keeps such jobs running at full speed.
	c := NewJobCurve("hopeless", 10000, res.Work(4500*1000), 4500, 9000, DefaultFunction())
	if got := c.MaxUtility(); got != -1 {
		t.Errorf("hopeless MaxUtility = %v, want floor -1", got)
	}
	if got := c.UtilityAt(2250); got != -1 {
		t.Errorf("hopeless utility at half speed = %v, want floor", got)
	}
}

func TestJobCurvePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero remaining", func() { NewJobCurve("j", 0, 0, 4500, 100, nil) })
	mustPanic("zero speed", func() { NewJobCurve("j", 0, 100, 0, 100, nil) })
}

func TestJobCurveProjectedCompletion(t *testing.T) {
	c := testJob(t)
	if got := c.ProjectedCompletion(4500); math.Abs(got-1000) > 1e-9 {
		t.Errorf("full-speed completion = %v, want 1000", got)
	}
	if got := c.ProjectedCompletion(0); !math.IsInf(got, 1) {
		t.Errorf("zero-alloc completion = %v, want +Inf", got)
	}
}

func TestJobCompletionUtility(t *testing.T) {
	fn := DefaultFunction()
	// Submitted 0, ideal 1000 s, goal 3000: window 2000.
	if got := JobCompletionUtility(fn, 0, 3000, 1000, 1000); math.Abs(got-1) > 1e-12 {
		t.Errorf("ideal completion utility = %v, want 1", got)
	}
	if got := JobCompletionUtility(fn, 0, 3000, 1000, 3000); got != 0 {
		t.Errorf("on-goal completion utility = %v, want 0", got)
	}
	if got := JobCompletionUtility(fn, 0, 3000, 1000, 5000); got != -1 {
		t.Errorf("very late completion = %v, want floor", got)
	}
}

// Property: job curve utility is monotone in allocation.
func TestJobCurveMonotoneProperty(t *testing.T) {
	c := testJob(t)
	f := func(a, b uint16) bool {
		x, y := res.CPU(a%5000), res.CPU(b%5000)
		if x > y {
			x, y = y, x
		}
		return c.UtilityAt(x) <= c.UtilityAt(y)+1e-12
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func transModel(t *testing.T) queueing.MG1PS {
	t.Helper()
	m, err := queueing.NewMG1PS(1350, 4500) // S = 0.3 s
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTransCurveSaturation(t *testing.T) {
	m := transModel(t)
	c := NewTransCurve("web", 100, 3.0, m, DefaultFunction())
	// Max utility is capped below 1 by the service-time floor.
	maxU := c.MaxUtility()
	if maxU >= 1 || maxU < 0.8 {
		t.Errorf("MaxUtility = %v, want in [0.8, 1) for goal 10x floor", maxU)
	}
	// More CPU than MaxUseful is wasted.
	if got := c.UtilityAt(c.MaxUseful() * 2); got < maxU-1e-9 {
		t.Errorf("utility above MaxUseful dropped: %v < %v", got, maxU)
	}
}

func TestTransCurveDemandRoundTrip(t *testing.T) {
	m := transModel(t)
	c := NewTransCurve("web", 100, 3.0, m, DefaultFunction())
	for _, u := range []float64{0.1, 0.5, 0.8} {
		d := c.DemandFor(u)
		got := c.UtilityAt(d)
		if math.Abs(got-u) > 1e-6 {
			t.Errorf("DemandFor(%v) = %v -> utility %v", u, d, got)
		}
	}
}

func TestTransCurveUnstableAllocationFloors(t *testing.T) {
	m := transModel(t)
	c := NewTransCurve("web", 100, 3.0, m, DefaultFunction())
	// λ·d = 135000; at or below that the system is unstable.
	if got := c.UtilityAt(135000); got != -1 {
		t.Errorf("utility at saturation = %v, want floor", got)
	}
}

func TestTransCurveIdleApp(t *testing.T) {
	m := transModel(t)
	c := NewTransCurve("idle", 0, 3.0, m, DefaultFunction())
	if c.MaxUseful() != 1 {
		t.Errorf("idle MaxUseful = %v, want 1", c.MaxUseful())
	}
	if got := c.UtilityAt(1); got <= 0.8 {
		t.Errorf("idle app utility = %v, want high", got)
	}
}

func TestTransCurvePanicsOnBadGoal(t *testing.T) {
	m := transModel(t)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero goal", func() { NewTransCurve("w", 1, 0, m, nil) })
	mustPanic("goal below floor", func() { NewTransCurve("w", 1, 0.2, m, nil) })
	mustPanic("negative lambda", func() { NewTransCurve("w", -1, 3, m, nil) })
}

func TestTransCurveUtilityOfRT(t *testing.T) {
	m := transModel(t)
	c := NewTransCurve("web", 100, 3.0, m, DefaultFunction())
	if got := c.UtilityOfRT(3.0); got != 0 {
		t.Errorf("utility at RT=goal = %v, want 0", got)
	}
	if got := c.UtilityOfRT(0.3); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("utility at RT=0.3 = %v, want 0.9", got)
	}
	if got := c.UtilityOfRT(math.Inf(1)); got != -1 {
		t.Errorf("utility at infinite RT = %v, want floor", got)
	}
}

// Property: transactional curve is monotone in allocation.
func TestTransCurveMonotoneProperty(t *testing.T) {
	m := transModel(t)
	c := NewTransCurve("web", 80, 3.0, m, DefaultFunction())
	f := func(a, b uint32) bool {
		x, y := res.CPU(a%400000), res.CPU(b%400000)
		if x > y {
			x, y = y, x
		}
		return c.UtilityAt(x) <= c.UtilityAt(y)+1e-12
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}
