package utility

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"slaplace/internal/queueing"
	"slaplace/internal/res"
)

// The equalizer's bisection replay (numeric.BisectReplay) reproduces
// plain bisection bit for bit only if the demand sweep g(u) steps down,
// in floating point, by less than half the slack it is given. g is a
// fixed-order sum of per-curve demands, and sweepSlack budgets each
// term's step-down at demandStepDown. These tests pin that premise for
// every term: Function.Invert and JobCurve.DemandFor never step down,
// and TransCurve.DemandFor (whose M/G/1 inversion rounds a quotient of
// two decreasing quantities) steps down by at most a thousandth of its
// allowance. They probe dense u grids, every grid point's
// math.Nextafter neighbours, and walks around the branch switches.

// uProbes returns a dense grid over [lo, hi], each point's Nextafter
// neighbours, and a 64-step Nextafter walk around each knot.
func uProbes(lo, hi float64, knots ...float64) []float64 {
	var us []float64
	const n = 4000
	for i := 0; i <= n; i++ {
		u := lo + (hi-lo)*float64(i)/n
		us = append(us, math.Nextafter(u, math.Inf(-1)), u, math.Nextafter(u, math.Inf(1)))
	}
	for _, k := range knots {
		u := k
		for i := 0; i < 64; i++ {
			u = math.Nextafter(u, math.Inf(-1))
		}
		for i := 0; i < 129; i++ {
			us = append(us, u)
			u = math.Nextafter(u, math.Inf(1))
		}
	}
	return us
}

// maxStepDown evaluates f at every probe in ascending order and returns
// the largest amount by which a value falls below an earlier one.
func maxStepDown(us []float64, f func(float64) float64) (worst, at float64) {
	sorted := append([]float64(nil), us...)
	slices.Sort(sorted)
	peak := math.Inf(-1)
	for _, u := range sorted {
		v := f(u)
		if d := peak - v; d > worst {
			worst, at = d, u
		}
		peak = math.Max(peak, v)
	}
	return worst, at
}

// checkNonDecreasing fails if f ever steps down across the probes.
func checkNonDecreasing(t *testing.T, name string, us []float64, f func(float64) float64) {
	t.Helper()
	if d, u := maxStepDown(us, f); d > 0 {
		t.Fatalf("%s steps down by %v at u=%v", name, d, u)
	}
}

// queueModel returns model i mod 3 of M/M/1, M/M/c and M/G/1-PS, for
// requests of the given demand on 4.5 GHz cores.
func queueModel(t *testing.T, i int, demand float64) queueing.Model {
	switch i % 3 {
	case 0:
		return queueing.MM1{DemandMHzs: demand}
	case 1:
		return queueing.MMc{DemandMHzs: demand, CoreSpeed: 4500}
	}
	m, err := queueing.NewMG1PS(demand, 4500)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func monotoneTestFunctions(t *testing.T) []Function {
	flat, err := NewPiecewise([]Point{{-1, -1}, {-0.2, 0}, {0.3, 0}, {0.6, 0.8}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	steep, err := NewPiecewise([]Point{{0, 0}, {1e-6, 0.5}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return []Function{
		Linear{Floor: -1}, Linear{Floor: 0},
		Sigmoid{K: 0.5}, Sigmoid{K: 4}, Sigmoid{K: 12}, Sigmoid{K: 30},
		flat, steep,
	}
}

func TestInvertNonDecreasingInFloat(t *testing.T) {
	for _, fn := range monotoneTestFunctions(t) {
		knots := []float64{-1, 0, 0.5, 1}
		if pw, ok := fn.(*Piecewise); ok {
			for _, p := range pw.Points() {
				knots = append(knots, p.U)
			}
		}
		checkNonDecreasing(t, fn.Name()+".Invert", uProbes(-1.5, 1.5, knots...), fn.Invert)
	}
}

func TestJobCurveDemandForNonDecreasingInFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fns := monotoneTestFunctions(t)
	for i := 0; i < 120; i++ {
		now := 1000 * rng.Float64()
		speed := res.CPU(500 + 4000*rng.Float64())
		work := res.Work(float64(speed) * (100 + 50000*rng.Float64()))
		goal := now + 60000*rng.Float64() - 10000 // some already late
		c := NewJobCurve(fmt.Sprintf("j%d", i), now, work, speed, goal, fns[i%len(fns)])
		lo, hi := c.UtilityAt(0), c.MaxUtility()
		us := uProbes(lo-0.1, hi+0.1, lo, hi, (lo+hi)/2)
		checkNonDecreasing(t, c.ID()+" "+fns[i%len(fns)].Name(), us, func(u float64) float64 {
			return float64(c.DemandFor(u))
		})
	}
}

func TestTransCurveDemandForStepDownWithinAllowance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	fns := monotoneTestFunctions(t)
	var worstShare float64
	for i := 0; i < 60; i++ {
		demand := 500 + 2000*rng.Float64()
		m := queueModel(t, i, demand)
		lambda := 0.0
		if i%5 != 0 {
			lambda = 1 + 50*rng.Float64()
		}
		rtGoal := demand / 4500 * (1.2 + 10*rng.Float64())
		c := NewTransCurve(fmt.Sprintf("web%d", i), lambda, rtGoal, m, fns[i%len(fns)])
		lo, hi := c.UtilityAt(0), c.MaxUtility()
		us := uProbes(lo-0.1, hi+0.1, lo, hi, (lo+hi)/2)
		d, u := maxStepDown(us, func(u float64) float64 { return float64(c.DemandFor(u)) })
		if allow := demandStepDown(c); d > allow/1000 {
			t.Errorf("%s %T %s steps down by %v at u=%v, allowance %v", c.ID(), m, fns[i%len(fns)].Name(), d, u, allow)
		}
		worstShare = math.Max(worstShare, d/demandStepDown(c))
	}
	t.Logf("worst step-down: %.2g of the allowance", worstShare)
}
