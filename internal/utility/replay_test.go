package utility

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"slaplace/internal/numeric"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
)

// plainBisect is the equalizer's utility search before the replay:
// BisectMonotone, which takes no slack and no hint.
func plainBisect(g func(float64) float64, target, lo, hi, tol, _, _ float64) float64 {
	return numeric.BisectMonotone(g, target, lo, hi, tol)
}

// countSweeps wraps a bisector so it counts demand sweeps into n.
func countSweeps(bisect bisector, n *int) bisector {
	return func(g func(float64) float64, target, lo, hi, tol, slack, hint float64) float64 {
		return bisect(func(u float64) float64 { *n++; return g(u) }, target, lo, hi, tol, slack, hint)
	}
}

// sameResult fails t unless got carries want's float64 bits in every
// share, utility, total and level.
func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Equalized, want.Equalized) || !same(float64(got.Allocated), float64(want.Allocated)) ||
		!same(got.Level, want.Level) {
		t.Fatalf("%s: equalized %v allocated %v level %v, want %v %v %v",
			what, got.Equalized, got.Allocated, got.Level, want.Equalized, want.Allocated, want.Level)
	}
	for i := range want.Shares {
		g, w := got.Shares[i], want.Shares[i]
		if !same(float64(g.Alloc), float64(w.Alloc)) || !same(g.Utility, w.Utility) {
			t.Fatalf("%s curve %s: alloc %v utility %v, want %v %v",
				what, w.Curve.ID(), g.Alloc, g.Utility, w.Alloc, w.Utility)
		}
	}
}

// randomCurveSet draws jobs under every utility function, some late
// and some hopeless, next to web applications on all three queueing
// models, some idle.
func randomCurveSet(t *testing.T, rng *rand.Rand, nJobs, nApps int) []Curve {
	fns := monotoneTestFunctions(t)
	var curves []Curve
	for i := 0; i < nApps; i++ {
		demand := 500 + 2000*rng.Float64()
		m := queueModel(t, i, demand)
		lambda := 0.0
		if i%4 != 0 {
			lambda = 1 + 60*rng.Float64()
		}
		curves = append(curves, NewTransCurve(fmt.Sprintf("web%d", i), lambda,
			demand/4500*(1.2+10*rng.Float64()), m, fns[rng.Intn(len(fns))]))
	}
	for i := 0; i < nJobs; i++ {
		now := 600 * rng.Float64()
		speed := res.CPU(1000 + 3500*rng.Float64())
		work := res.Work(float64(speed) * (600 + 40000*rng.Float64()))
		goal := now + 50000*rng.Float64() - 5000
		curves = append(curves, NewJobCurve(fmt.Sprintf("j%d", i), now, work, speed, goal, fns[rng.Intn(len(fns))]))
	}
	return curves
}

// TestEqualizeReplayMatchesBisection runs the equalizer over random
// curve sets and capacities, from idle to oversubscribed, once with
// the replay and once with plain bisection, and requires every share,
// utility and total to carry the same float64 bits. The replay runs
// under hints that are no help or actively misleading as well: none,
// outside the utility range, ±Inf, exactly the first round's level and
// one ulp either side of it, on one scratch reused across sets of
// every size.
func TestEqualizeReplayMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sc EqualizeScratch
	for trial := 0; trial < 60; trial++ {
		curves := randomCurveSet(t, rng, 1+rng.Intn(300), rng.Intn(6))
		capacity := MaxUsefulTotal(curves) * res.CPU(1.2*rng.Float64())
		want := equalize(nil, curves, capacity, math.NaN(), plainBisect)
		root := want.Level
		for _, hint := range []float64{
			math.NaN(), -7, 3, math.Inf(-1), math.Inf(1), 0,
			root, math.Nextafter(root, math.Inf(-1)), math.Nextafter(root, math.Inf(1)),
		} {
			got := EqualizeWith(&sc, curves, capacity, hint)
			sameResult(t, fmt.Sprintf("trial %d hint %v", trial, hint), got, want)
		}
	}
}

// churnCurves draws a control cycle like the churn benchmark's: 5000
// mid-life jobs of one core under the default utility function, with
// goals 1-8 times their remaining ideal duration away, beside four
// M/G/1 web applications with goals of 1-5 s.
func churnCurves(t *testing.T, rng *rand.Rand, nJobs int) []Curve {
	m, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		t.Fatal(err)
	}
	var curves []Curve
	for i, app := range []struct{ lambda, rtGoal float64 }{{250, 1}, {400, 2}, {550, 3}, {300, 5}} {
		curves = append(curves, NewTransCurve(fmt.Sprintf("web%d", i), app.lambda, app.rtGoal, m, nil))
	}
	for i := 0; i < nJobs; i++ {
		work := res.Work(4500 * 600 * (8 + 32*rng.Float64()) * (0.05 + 0.95*rng.Float64()))
		goal := 6000 + (1+7*rng.Float64())*work.Seconds(4500)
		curves = append(curves, NewJobCurve(fmt.Sprintf("j%d", i), 6000, work, 4500, goal, nil))
	}
	return curves
}

// TestEqualizeReplaySweeps pins the replay's saving on a fixed
// churn-like cycle (5000 jobs on 500 nodes' CPU): at most half of plain
// bisection's demand sweeps.
func TestEqualizeReplaySweeps(t *testing.T) {
	curves := churnCurves(t, rand.New(rand.NewSource(40)), 5000)
	const capacity = 500 * 18000
	var replay, plain int
	got := equalize(nil, curves, capacity, math.NaN(), countSweeps(numeric.BisectReplay, &replay))
	want := equalize(nil, curves, capacity, math.NaN(), countSweeps(plainBisect, &plain))
	if math.Float64bits(got.Equalized) != math.Float64bits(want.Equalized) {
		t.Fatalf("equalized %v, bisection %v", got.Equalized, want.Equalized)
	}
	t.Logf("demand sweeps: replay %d, bisection %d", replay, plain)
	if 2*replay > plain {
		t.Errorf("replay swept %d times, more than half of bisection's %d", replay, plain)
	}
}

// TestEqualizeHintedSweeps replays a drifting churn-like sequence: 5000
// jobs run for a 600 s cycle at the share the last cycle gave them,
// finished ones are replaced by fresh ones, and the four web
// applications' arrival rates wander. Chaining each cycle's Level into
// the next, and each round's level into the next round, must keep
// every Result's bits and cost at most 0.6 of the sweeps the same
// replay makes with no hint at all.
func TestEqualizeHintedSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	m, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		t.Fatal(err)
	}
	const capacity, period, warmup = 500 * 18000, 600, 40
	lambdas := []float64{250, 400, 550, 300}
	curves := churnCurves(t, rng, 5000)
	noHint := func(g func(float64) float64, target, lo, hi, tol, slack, _ float64) float64 {
		return numeric.BisectReplay(g, target, lo, hi, tol, slack, math.NaN())
	}
	var hinted, unhinted int
	level := math.NaN()
	var sc EqualizeScratch
	for cycle := -warmup; cycle < 12; cycle++ {
		if cycle == 0 {
			hinted, unhinted = 0, 0
		}
		want := equalize(nil, curves, capacity, math.NaN(), countSweeps(noHint, &unhinted))
		got := equalize(&sc, curves, capacity, level, countSweeps(numeric.BisectReplay, &hinted))
		sameResult(t, fmt.Sprintf("cycle %d", cycle), got, want)
		level = got.Level
		next := make([]Curve, 0, len(curves))
		for i, l := range lambdas {
			lambdas[i] = l * (0.95 + 0.1*rng.Float64())
			next = append(next, NewTransCurve(fmt.Sprintf("web%d", i), lambdas[i], float64(1+i), m, nil))
		}
		for i, c := range curves[len(lambdas):] {
			jc := c.(*JobCurve)
			work := jc.remaining - res.Work(float64(want.Shares[len(lambdas)+i].Alloc)*period)
			if work <= 0 {
				work = res.Work(4500 * 600 * (8 + 32*rng.Float64()))
				next = append(next, NewJobCurve(jc.id, jc.now+period, work, 4500, jc.now+period+(1+7*rng.Float64())*work.Seconds(4500), nil))
				continue
			}
			next = append(next, NewJobCurve(jc.id, jc.now+period, work, jc.maxSpeed, jc.goal, nil))
		}
		curves = next
	}
	t.Logf("demand sweeps over 12 cycles: hinted %d, unhinted %d (%.2f)",
		hinted, unhinted, float64(hinted)/float64(unhinted))
	if 10*hinted > 6*unhinted {
		t.Errorf("hinted sweeps %d exceed 0.6 of unhinted %d", hinted, unhinted)
	}
}
