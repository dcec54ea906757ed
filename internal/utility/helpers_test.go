package utility

import (
	"math"

	"slaplace/internal/res"
)

// MeanUtility returns the unweighted mean predicted utility of a subset
// of shares selected by the filter (nil selects all).
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

// TotalDemandFor sums DemandFor(u) over a set of curves: the aggregate
// CPU a utility target would cost.
func TotalDemandFor(curves []Curve, u float64) res.CPU {
	var sum res.CPU
	for _, c := range curves {
		sum += c.DemandFor(math.Min(u, c.MaxUtility()))
	}
	return sum
}

// MaxUsefulTotal sums the maximum useful demand over curves: the CPU
// that would make every workload fully satisfied.
func MaxUsefulTotal(curves []Curve) res.CPU {
	var sum res.CPU
	for _, c := range curves {
		sum += c.MaxUseful()
	}
	return sum
}

// ProjectedCompletion returns the completion time under a sustained
// allocation (+Inf at zero).
func (c *JobCurve) ProjectedCompletion(alloc res.CPU) float64 {
	if alloc <= 0 {
		return math.Inf(1)
	}
	return c.now + c.remaining.Seconds(res.Min(alloc, c.maxSpeed))
}

// UtilityOfRT scores a measured response time — the "actual utility"
// the paper plots for the transactional workload in Figure 1.
func (c *TransCurve) UtilityOfRT(rt float64) float64 { return c.fn.Eval(c.perfOfRT(rt)) }
