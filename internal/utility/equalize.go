package utility

import (
	"fmt"
	"math"

	"slaplace/internal/numeric"
	"slaplace/internal/res"
)

// Share is the equalizer's verdict for one workload: the CPU it should
// receive and the utility it is predicted to achieve with it.
type Share struct {
	Curve   Curve
	Alloc   res.CPU
	Utility float64
}

// Result is the outcome of an equalization round.
type Result struct {
	// Shares holds one entry per input curve, in input order.
	Shares []Share
	// Equalized is the max-min utility level: the minimum predicted
	// utility across all workloads (the common level when capacity is
	// the binding constraint).
	Equalized float64
	// Allocated is the total CPU handed out; at most the capacity.
	Allocated res.CPU
	// Level is the first round's bisected utility level, NaN when no
	// round bisected: the hint for the next equalization of a drifting
	// curve set.
	Level float64
}

// equalizeTol is the utility-space tolerance of the waterfill bisection.
const equalizeTol = 1e-9

// EqualizeScratch recycles the equalizer's working storage across
// calls. One scratch serves one caller at a time; the placement
// controller keeps one in each plan arena and reuses it every plan,
// cutting the dominant per-plan allocation (the Shares slice is
// O(workloads), megabytes at 200k jobs).
type EqualizeScratch struct {
	shares []Share
	active []int
	spare  []int
	sat    []int
	allocs []res.CPU

	// ents holds each input curve's constants; fns are the distinct job
	// functions a sweep inverts once each, into pStar.
	ents  []entry
	fns   []Function
	pStar [maxFnSlots]float64
}

// entry is one input curve's constants, read once per equalization
// (every Curve method is pure), and the slot of a *JobCurve's function
// in the inversion cache. It holds no pointer, so filling it costs no
// write barriers.
type entry struct {
	slot         int     // -1 uncached, notJob for any other Curve
	atZero, maxU float64 // UtilityAt(0), MaxUtility()
	maxUseful    res.CPU
	stepDown     float64 // demandStepDown
}

// notJob marks an entry whose curve is no *JobCurve.
const notJob = -2

// maxFnSlots bounds the inversion cache.
const maxFnSlots = 8

// fnSlot returns fn's slot in the inversion cache, adding it when there
// is room. Only this package's functions are cached: their Invert is
// pure and their types comparable, so == functions invert alike.
func (sc *EqualizeScratch) fnSlot(fn Function) int {
	for s, f := range sc.fns {
		if f == fn {
			return s
		}
	}
	switch fn.(type) {
	case Linear, Sigmoid, *Piecewise:
		if len(sc.fns) < maxFnSlots {
			sc.fns = append(sc.fns, fn)
			return len(sc.fns) - 1
		}
	}
	return -1
}

// demand is c.DemandFor(u) for the *JobCurve c of e, its inversion
// read from pStar when cached there.
func (e *entry) demand(c *JobCurve, u float64, pStar *[maxFnSlots]float64) res.CPU {
	switch {
	case u <= c.utilityAtZero:
		return 0
	case u >= c.maxUtility:
		return c.maxSpeed
	case e.slot < 0:
		return c.demandAtPerf(c.fn.Invert(u))
	}
	return c.demandAtPerf(pStar[e.slot])
}

// Equalize computes the paper's hypothetical-utility allocation: divide
// capacity among the given workload curves so that utility is
// lexicographically max-min — the fixed point of "continuously steal
// resources from the more satisfied applications to give to the less
// satisfied applications" (§2 of the paper).
//
// Semantics: find the highest common utility level u* financeable by
// the capacity; workloads whose utility saturates below u* receive
// exactly their maximum useful allocation and the remainder is
// redistributed to lift everyone else further. Capacity left over after
// all workloads saturate stays idle (allocating it could not raise any
// utility).
//
// The input curves are not mutated; Equalize is a pure function, so the
// controller can probe what-if scenarios freely.
func Equalize(curves []Curve, capacity res.CPU) Result {
	return EqualizeWith(nil, curves, capacity, math.NaN())
}

// EqualizeWith is Equalize backed by recycled working storage. The
// returned Result's Shares slice aliases the scratch and is valid only
// until the next EqualizeWith call on the same scratch; a nil scratch
// degenerates to the allocating Equalize. The two entry points are
// bit-identical: the scratch changes where intermediates live, never
// what arithmetic runs. The utility level is found by
// numeric.BisectReplay, which lands on plain bisection's exact level
// with a fraction of the demand sweeps. hint is a guess at the first
// round's level (NaN for none), such as the Level of the previous
// equalization of a drifting curve set; later rounds start from the
// round before. A hint changes only the number of sweeps, never a bit
// of the Result.
func EqualizeWith(sc *EqualizeScratch, curves []Curve, capacity res.CPU, hint float64) Result {
	return equalize(sc, curves, capacity, hint, numeric.BisectReplay)
}

// bisector is the utility search equalize runs on the demand sweep:
// numeric.BisectReplay, or in tests the BisectMonotone it must match.
type bisector func(g func(float64) float64, target, lo, hi, tol, slack, hint float64) float64

// demandStepDown bounds how far c.DemandFor may step down, in floating
// point, between two utility levels u1 < u2: DemandFor(u1) exceeds
// DemandFor(u2) by at most this much. In exact arithmetic every curve
// is non-decreasing; rounding (an M/G/1 inversion's last division, a
// Function.Invert breakpoint) can cost a few ulps, and the M/M/c
// model's numeric inversion its 1e-6 MHz bisection tolerance. The
// bound is orders of magnitude above both (monotone_test.go measures
// them); it only widens the equalizer's replay slack. The sweep's
// switch to MaxUseful near MaxUtility never steps down, since DemandFor
// never exceeds MaxUseful.
func demandStepDown(c Curve) float64 {
	d := 1e-12 * float64(c.MaxUseful())
	if _, ok := c.(*JobCurve); !ok {
		d += 1e-6
	}
	return d
}

// sweepSlack is the slack the demand sweep's replay needs (see
// numeric.BisectReplay): twice the most the fixed-order sum of n
// demands can step down. That is the terms' own step-downs plus one
// ulp of the largest partial sum, at most maxUseful, per addition.
func sweepSlack(n int, maxUseful res.CPU, stepDown float64) float64 {
	m := float64(maxUseful)
	return 2 * (stepDown + float64(n)*(math.Nextafter(m, math.Inf(1))-m))
}

// equalize is EqualizeWith with the utility search as a parameter.
// Job curves are read through their entries, every other curve through
// the Curve interface, in the same order over active.
func equalize(sc *EqualizeScratch, curves []Curve, capacity res.CPU, hint float64, bisect bisector) Result {
	if capacity < 0 {
		panic(fmt.Sprintf("utility: negative capacity %v", capacity))
	}
	if sc == nil {
		sc = &EqualizeScratch{}
	}
	if cap(sc.shares) < len(curves) {
		sc.shares = make([]Share, len(curves))
		sc.active = make([]int, len(curves))
		sc.spare = make([]int, 0, len(curves))
		sc.ents = make([]entry, len(curves))
	}
	r := Result{Shares: sc.shares[:len(curves)], Level: math.NaN()}
	ents := sc.ents[:len(curves)]
	sc.fns = sc.fns[:0]
	for i, c := range curves {
		if c == nil {
			panic(fmt.Sprintf("utility: nil curve at index %d", i))
		}
		r.Shares[i] = Share{Curve: c}
		e := &ents[i]
		if jc, ok := c.(*JobCurve); ok {
			*e = entry{sc.fnSlot(jc.fn), jc.utilityAtZero, jc.maxUtility, jc.maxSpeed, demandStepDown(jc)}
		} else {
			*e = entry{notJob, c.UtilityAt(0), c.MaxUtility(), c.MaxUseful(), demandStepDown(c)}
		}
	}
	if len(curves) == 0 {
		return r
	}

	active := sc.active[:len(curves)]
	for i := range curves {
		active[i] = i
	}
	spare := sc.spare[:0]
	remaining := capacity

	invert := func(u float64) {
		for s, fn := range sc.fns {
			sc.pStar[s] = fn.Invert(u)
		}
	}
	// g is the equalizer's demand sweep: the CPU the active workloads
	// need to sit at utility level u. At or above its saturation level
	// a workload receives its full useful allocation — this matters for
	// "hopeless" workloads whose curve is flat at the utility floor
	// (e.g. a job whose goal is unreachable): pure curve inversion
	// would starve them, whereas the paper's policy keeps feeding the
	// least satisfied work so it finishes as early as it still can.
	g := func(u float64) float64 {
		invert(u)
		var sum res.CPU
		for _, i := range active {
			switch e := &ents[i]; {
			case u >= e.maxU-equalizeTol:
				sum += e.maxUseful
			case e.slot != notJob:
				sum += e.demand(curves[i].(*JobCurve), u, &sc.pStar)
			default:
				sum += curves[i].DemandFor(u)
			}
		}
		return float64(sum)
	}

	for len(active) > 0 && remaining >= 0 {
		// Bracket the utility search: below uLo every active curve is
		// free (zero demand); above uHi no active curve improves.
		uLo := math.Inf(1)
		uHi := math.Inf(-1)
		var maxUsefulSum res.CPU
		var stepDown float64
		for _, i := range active {
			uLo = math.Min(uLo, ents[i].atZero)
			uHi = math.Max(uHi, ents[i].maxU)
			maxUsefulSum += ents[i].maxUseful
			stepDown += ents[i].stepDown
		}
		if maxUsefulSum <= remaining {
			// Everyone can saturate; hand out max useful and stop.
			for _, i := range active {
				a := ents[i].maxUseful
				r.Shares[i].Alloc = a
				remaining -= a
			}
			break
		}
		uStar := bisect(g, float64(remaining), uLo, uHi, equalizeTol, sweepSlack(len(active), maxUsefulSum, stepDown), hint)
		if math.IsNaN(r.Level) {
			r.Level = uStar
		}
		hint = uStar

		// Saturated curves cannot reach uStar no matter what; give them
		// their cap and redistribute what is left to the rest.
		saturated := sc.sat[:0]
		rest := spare[:0]
		for _, i := range active {
			if ents[i].maxU <= uStar+equalizeTol {
				saturated = append(saturated, i)
			} else {
				rest = append(rest, i)
			}
		}
		sc.sat = saturated
		if len(saturated) == 0 {
			// uStar is the common level; assign and finish. Rescale if
			// bisection overshoot put us a hair over the capacity.
			var sum res.CPU
			if cap(sc.allocs) < len(active) {
				sc.allocs = make([]res.CPU, len(active))
			}
			allocs := sc.allocs[:len(active)]
			invert(uStar)
			for k, i := range active {
				if e := &ents[i]; e.slot != notJob {
					allocs[k] = e.demand(curves[i].(*JobCurve), uStar, &sc.pStar)
				} else {
					allocs[k] = curves[i].DemandFor(uStar)
				}
				sum += allocs[k]
			}
			scale := 1.0
			if sum > remaining && sum > 0 {
				scale = float64(remaining) / float64(sum)
			}
			for k, i := range active {
				a := res.CPU(float64(allocs[k]) * scale)
				r.Shares[i].Alloc = a
				remaining -= a
			}
			break
		}
		// Give the saturated set its caps; if even those exceed what is
		// left (many hopeless workloads), split the remainder among
		// them proportionally to their caps.
		var satSum res.CPU
		for _, i := range saturated {
			satSum += ents[i].maxUseful
		}
		scale := 1.0
		if satSum > remaining && satSum > 0 {
			scale = float64(remaining) / float64(satSum)
		}
		for _, i := range saturated {
			a := res.CPU(float64(ents[i].maxUseful) * scale)
			r.Shares[i].Alloc = a
			remaining -= a
		}
		// The shrunk active set moves into the spare buffer's storage;
		// the old active buffer backs the next round's rest list.
		active, spare = rest, active
	}

	// Score the final allocations.
	r.Equalized = math.Inf(1)
	for i := range r.Shares {
		var u float64
		if ents[i].slot != notJob {
			u = curves[i].(*JobCurve).UtilityAt(r.Shares[i].Alloc)
		} else {
			u = r.Shares[i].Curve.UtilityAt(r.Shares[i].Alloc)
		}
		r.Shares[i].Utility = u
		r.Equalized = math.Min(r.Equalized, u)
		r.Allocated += r.Shares[i].Alloc
	}
	if math.IsInf(r.Equalized, 1) {
		r.Equalized = 0
	}
	return r
}
