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
	return EqualizeWith(nil, curves, capacity)
}

// EqualizeWith is Equalize backed by recycled working storage. The
// returned Result's Shares slice aliases the scratch and is valid only
// until the next EqualizeWith call on the same scratch; a nil scratch
// degenerates to the allocating Equalize. The two entry points are
// bit-identical: the scratch changes where intermediates live, never
// what arithmetic runs. The utility level is found by
// numeric.BisectReplay, which lands on plain bisection's exact level
// with a fraction of the demand sweeps.
func EqualizeWith(sc *EqualizeScratch, curves []Curve, capacity res.CPU) Result {
	return equalize(sc, curves, capacity, numeric.BisectReplay)
}

// bisector is the utility search equalize runs on the demand sweep:
// numeric.BisectReplay, or in tests the BisectMonotone it must match.
type bisector func(g func(float64) float64, target, lo, hi, tol, slack float64) float64

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
func equalize(sc *EqualizeScratch, curves []Curve, capacity res.CPU, bisect bisector) Result {
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
	}
	r := Result{Shares: sc.shares[:len(curves)]}
	for i, c := range curves {
		if c == nil {
			panic(fmt.Sprintf("utility: nil curve at index %d", i))
		}
		r.Shares[i] = Share{Curve: c}
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

	// demandAt is the equalizer's demand function: the CPU workload i
	// needs to sit at utility level u. At or above its saturation level
	// the workload receives its full useful allocation — this matters
	// for "hopeless" workloads whose curve is flat at the utility floor
	// (e.g. a job whose goal is unreachable): pure curve inversion
	// would starve them, whereas the paper's policy keeps feeding the
	// least satisfied work so it finishes as early as it still can.
	demandAt := func(i int, u float64) res.CPU {
		if u >= curves[i].MaxUtility()-equalizeTol {
			return curves[i].MaxUseful()
		}
		return curves[i].DemandFor(u)
	}

	for len(active) > 0 && remaining >= 0 {
		// Bracket the utility search: below uLo every active curve is
		// free (zero demand); above uHi no active curve improves.
		uLo := math.Inf(1)
		uHi := math.Inf(-1)
		var maxUsefulSum res.CPU
		var stepDown float64
		for _, i := range active {
			uLo = math.Min(uLo, curves[i].UtilityAt(0))
			uHi = math.Max(uHi, curves[i].MaxUtility())
			maxUsefulSum += curves[i].MaxUseful()
			stepDown += demandStepDown(curves[i])
		}
		if maxUsefulSum <= remaining {
			// Everyone can saturate; hand out max useful and stop.
			for _, i := range active {
				a := curves[i].MaxUseful()
				r.Shares[i].Alloc = a
				remaining -= a
			}
			break
		}
		g := func(u float64) float64 {
			var sum res.CPU
			for _, i := range active {
				sum += demandAt(i, u)
			}
			return float64(sum)
		}
		uStar := bisect(g, float64(remaining), uLo, uHi, equalizeTol, sweepSlack(len(active), maxUsefulSum, stepDown))

		// Saturated curves cannot reach uStar no matter what; give them
		// their cap and redistribute what is left to the rest.
		saturated := sc.sat[:0]
		rest := spare[:0]
		for _, i := range active {
			if curves[i].MaxUtility() <= uStar+equalizeTol {
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
			for k, i := range active {
				allocs[k] = curves[i].DemandFor(uStar)
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
			satSum += curves[i].MaxUseful()
		}
		scale := 1.0
		if satSum > remaining && satSum > 0 {
			scale = float64(remaining) / float64(satSum)
		}
		for _, i := range saturated {
			a := res.CPU(float64(curves[i].MaxUseful()) * scale)
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
		u := r.Shares[i].Curve.UtilityAt(r.Shares[i].Alloc)
		r.Shares[i].Utility = u
		r.Equalized = math.Min(r.Equalized, u)
		r.Allocated += r.Shares[i].Alloc
	}
	if math.IsInf(r.Equalized, 1) {
		r.Equalized = 0
	}
	return r
}

// MeanUtility returns the unweighted mean predicted utility of a subset
// of shares selected by the filter (nil selects all). The paper's
// Figure 1 plots this over the long-running jobs.
func (r Result) MeanUtility(filter func(Curve) bool) float64 {
	var sum float64
	var n int
	for i := range r.Shares {
		if filter != nil && !filter(r.Shares[i].Curve) {
			continue
		}
		sum += r.Shares[i].Utility
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AllocOf returns the allocation granted to the curve with the given ID
// (0, false when absent).
func (r Result) AllocOf(id string) (res.CPU, bool) {
	for i := range r.Shares {
		if r.Shares[i].Curve.ID() == id {
			return r.Shares[i].Alloc, true
		}
	}
	return 0, false
}

// TotalDemandFor sums DemandFor(u) over a set of curves — the aggregate
// CPU a utility target would cost. Used by Figure 2's demand series.
func TotalDemandFor(curves []Curve, u float64) res.CPU {
	var sum res.CPU
	for _, c := range curves {
		sum += c.DemandFor(math.Min(u, c.MaxUtility()))
	}
	return sum
}

// MaxUsefulTotal sums the maximum useful demand over curves — the CPU
// that would make every workload fully satisfied (the "demand to
// achieve maximum utility" plotted in Figure 2).
func MaxUsefulTotal(curves []Curve) res.CPU {
	var sum res.CPU
	for _, c := range curves {
		sum += c.MaxUseful()
	}
	return sum
}
