// Package numeric holds the small numerical routines shared by the
// queueing models and the utility equalizer: monotone root finding by
// bisection. Everything here is pure and allocation-free on the hot
// paths.
//
// BisectReplay is BisectMonotone at a fraction of the evaluations. It
// narrows a certified bracket [a, b] by Illinois false position and
// replays BisectMonotone's own midpoint sequence, evaluating f only at
// midpoints strictly inside the bracket: a midpoint at or below a must
// compare below the target and one at or above b must not, so those
// outcomes are known without a call. The replay takes every decision
// BisectMonotone takes and returns the same float64 bits, under one
// premise on f in floating point, not just in exact arithmetic: f never
// steps down by more than slack/2, f(x) <= f(y) + slack/2 for x <= y.
// A bracket end is certified only when f there clears the target by
// slack, which is what makes the premise enough; slack 0 asks for an f
// that never steps down at all. A nonzero slack must be at least two
// ulps of |target|+slack, so that rounding target±slack cannot eat the
// margin.
//
// BisectReplay also takes a hint at the root (NaN for none). A hint is
// certified, never trusted: the first two probes evaluate f at hint ∓ δ
// (and, when both land on one side, a third where their secant meets
// the target), each filed as a bracket end only when it clears the
// slack band. A probe can only tighten the certified bracket, so every
// hint (NaN, ±Inf, outside [lo, hi], on the root or one ulp off it)
// returns BisectMonotone's bits; a good one only saves calls.
package numeric

import (
	"fmt"
	"math"
)

// DefaultTol is the default absolute tolerance for root finding,
// adequate for quantities measured in MHz (1e-6 MHz is sub-Hz).
const DefaultTol = 1e-9

// BisectMonotone finds x in [lo, hi] with f(x) ≈ target for a monotone
// non-decreasing f. If f(hi) < target it returns hi; if f(lo) > target
// it returns lo (saturating semantics — callers use this to express
// capacity limits). It panics if lo > hi or either bound is NaN.
func BisectMonotone(f func(float64) float64, target, lo, hi, tol float64) float64 {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		panic("numeric: NaN bound")
	}
	if lo > hi {
		panic(fmt.Sprintf("numeric: inverted interval [%v, %v]", lo, hi))
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if f(hi) < target {
		return hi
	}
	if f(lo) >= target {
		return lo
	}
	// Invariant: f(lo) < target <= f(hi).
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi { // float exhaustion
			break
		}
		if f(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// replayDebt bounds how many more calls BisectReplay may make than
// BisectMonotone: it probes false-position points only while the
// probes it made exceed the bisection calls they saved by fewer than
// this many.
const replayDebt = 6

// hintSpan is δ, the half-width of a hint's probe pair, as a fraction
// of hi − lo; tuned on the equalizer's churn and steady sequences.
const hintSpan = 3e-6

// BisectReplay returns exactly BisectMonotone(f, target, lo, hi, tol),
// bit for bit, for an f that never steps down by more than slack/2
// (see the package doc); slack 0 asks for an f that never steps down
// at all. hint is a guess at the root, NaN for none; any hint returns
// the same bits. It calls f at most replayDebt times more than
// BisectMonotone does, and on smooth f a fraction as often. Its
// validation, panics and saturating ends are BisectMonotone's.
func BisectReplay(f func(float64) float64, target, lo, hi, tol, slack, hint float64) float64 {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		panic("numeric: NaN bound")
	}
	if lo > hi {
		panic(fmt.Sprintf("numeric: inverted interval [%v, %v]", lo, hi))
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	fhi := f(hi)
	if fhi < target {
		return hi
	}
	flo := f(lo)
	if flo >= target {
		return lo
	}
	// [a, b] is the certified bracket: f(a) clears the target by slack
	// from below and f(b) from above, so every x <= a compares below
	// the target and every x >= b does not. da and db are the offsets
	// f-target that false position interpolates.
	below, above := target-slack, target+slack
	a, b := math.Inf(-1), math.Inf(1)
	da, db := flo-target, fhi-target
	if flo < below {
		a = lo
	}
	if fhi >= above {
		b = hi
	}
	// certify files an evaluated point as a bracket end when it clears
	// the slack band, and reports the side: -1 below, 1 above, 0 in the
	// band.
	certify := func(x, fx float64) int {
		switch {
		case fx < below:
			if x > a {
				a, da = x, fx-target
			}
			return -1
		case fx >= above:
			if x < b {
				b, db = x, fx-target
			}
			return 1
		}
		return 0
	}
	// side is the end the last probe replaced; step keeps probes clear
	// of the ends; band is the last probe that landed inside the slack
	// band (NaN if none), around which the next probes certify.
	side, step, band := 0, tol/2, math.NaN()
	// debt is the probes made less the bisection calls they saved.
	debt := 0
	if hi-lo > tol {
		// hint-δ first: when it certifies above, hint+δ would tell
		// nothing. When both land on one side, probe where their
		// secant meets the target.
		probe := func(x float64) (float64, int) {
			if !(x > lo && x < hi && x > a && x < b) {
				return 0, 0
			}
			debt++
			fx := f(x)
			return fx, certify(x, fx)
		}
		d := hintSpan * (hi - lo)
		f0, s0 := probe(hint - d)
		f1, s1 := probe(hint + d)
		if s0 != 0 && s0 == s1 && f0 != f1 {
			probe(hint + d + (target-f1)*2*d/(f1-f0))
		}
	}
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		switch {
		case mid <= a:
			lo = mid
			debt--
		case mid >= b:
			hi = mid
			debt--
		case debt < replayDebt && b-a > 4*step:
			// Probe next to the band point if one is pending, else the
			// Illinois false-position point: retaining one end twice
			// halves that end's offset so the secant cannot stall
			// against it, and probes keep step clear of the ends.
			var x float64
			switch {
			case band-step > a:
				x = band - step
			case band+step < b:
				x = band + step
			default:
				x = math.Max(a+step, math.Min(b-step, b-db*(b-a)/(db-da)))
				if !(x > a && x < b) {
					x = mid
				}
			}
			debt++
			switch certify(x, f(x)) {
			case -1:
				if side < 0 {
					db /= 2
				}
				side = -1
			case 1:
				if side > 0 {
					da /= 2
				}
				side = 1
			default:
				if !math.IsNaN(band) {
					step *= 2
				}
				band = x
			}
		default:
			// Bisect as BisectMonotone does; mid may tighten the bracket.
			fm := f(mid)
			certify(mid, fm)
			if fm < target {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	return hi
}

// BisectDecreasing finds x in [lo, hi] with f(x) ≈ target for a
// monotone non-increasing f, with the same saturating semantics:
// if even f(lo) < target it returns lo; if f(hi) > target it returns hi.
func BisectDecreasing(f func(float64) float64, target, lo, hi, tol float64) float64 {
	return BisectMonotone(func(x float64) float64 { return -f(x) }, -target, lo, hi, tol)
}
