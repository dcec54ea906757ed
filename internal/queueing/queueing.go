// Package queueing provides the performance models that stand in for
// the paper's transactional-workload profiler. The placement controller
// needs, for each web application, a map from CPU allocation to mean
// response time (to evaluate utility) and its inverse (to translate a
// utility target into a CPU demand). The models here supply both.
//
// The primary model, MG1PS, treats an application cluster as a fluid
// processor-sharing server of capacity Ω MHz, with one physically
// motivated refinement: a single request executes on one core, so even
// an unloaded system cannot respond faster than the request's service
// demand divided by the core speed. That floor is what caps the
// transactional workload's achievable utility below 1 in the paper's
// Figure 1.
package queueing

import (
	"fmt"
	"math"

	"slaplace/internal/numeric"
	"slaplace/internal/res"
)

// Model maps (arrival rate, CPU allocation) to mean response time and
// back. Implementations must be monotone: RT non-increasing in the
// allocation, demand non-decreasing in the arrival rate.
type Model interface {
	// ResponseTime returns the mean response time in seconds for a
	// Poisson arrival stream of lambda req/s under an aggregate CPU
	// allocation. It returns +Inf when the system is unstable.
	ResponseTime(lambda float64, alloc res.CPU) float64
	// DemandFor returns the minimum allocation that achieves mean
	// response time rt at arrival rate lambda. It returns +Inf when rt
	// is below the model's floor (unachievable at any allocation).
	DemandFor(lambda float64, rt float64) res.CPU
	// MinRT returns the response-time floor: the RT as allocation → ∞.
	MinRT() float64
	// StabilityDemand returns the minimum allocation for stability
	// (finite RT) at the given arrival rate.
	StabilityDemand(lambda float64) res.CPU
}

// MG1PS is the fluid processor-sharing model with a per-core speed cap.
//
//	S  = DemandMHzs / CoreSpeed        (bare service time)
//	ρ  = λ · DemandMHzs / Ω            (utilization of the allocation)
//	RT = S / (1 − ρ)                   (ρ < 1; +Inf otherwise)
type MG1PS struct {
	// DemandMHzs is the per-request service demand in MHz·seconds
	// (cycles ÷ 1e6): the work one request needs.
	DemandMHzs float64
	// CoreSpeed is the speed of one core in MHz; a request's bare
	// service time is DemandMHzs/CoreSpeed.
	CoreSpeed res.CPU
}

var _ Model = MG1PS{}

// NewMG1PS validates and builds an MG1PS model.
func NewMG1PS(demandMHzs float64, coreSpeed res.CPU) (MG1PS, error) {
	if demandMHzs <= 0 {
		return MG1PS{}, fmt.Errorf("queueing: non-positive request demand %v", demandMHzs)
	}
	if coreSpeed <= 0 {
		return MG1PS{}, fmt.Errorf("queueing: non-positive core speed %v", coreSpeed)
	}
	return MG1PS{DemandMHzs: demandMHzs, CoreSpeed: coreSpeed}, nil
}

// MinRT returns the bare service time S.
func (m MG1PS) MinRT() float64 { return m.DemandMHzs / float64(m.CoreSpeed) }

// StabilityDemand returns λ·d, the allocation at which ρ = 1.
func (m MG1PS) StabilityDemand(lambda float64) res.CPU {
	if lambda < 0 {
		panic(fmt.Sprintf("queueing: negative arrival rate %v", lambda))
	}
	return res.CPU(lambda * m.DemandMHzs)
}

// ResponseTime implements Model.
func (m MG1PS) ResponseTime(lambda float64, alloc res.CPU) float64 {
	if lambda < 0 {
		panic(fmt.Sprintf("queueing: negative arrival rate %v", lambda))
	}
	s := m.MinRT()
	if lambda == 0 {
		if alloc <= 0 {
			return math.Inf(1) // no capacity, no service
		}
		return s
	}
	if alloc <= 0 {
		return math.Inf(1)
	}
	rho := lambda * m.DemandMHzs / float64(alloc)
	if rho >= 1 {
		return math.Inf(1)
	}
	return s / (1 - rho)
}

// DemandFor implements Model: Ω = λ·d·τ / (τ − S) for τ > S.
func (m MG1PS) DemandFor(lambda float64, rt float64) res.CPU {
	if lambda < 0 {
		panic(fmt.Sprintf("queueing: negative arrival rate %v", lambda))
	}
	s := m.MinRT()
	if rt <= s {
		return res.CPU(math.Inf(1))
	}
	if lambda == 0 {
		return 0
	}
	return res.CPU(lambda * m.DemandMHzs * rt / (rt - s))
}

// MM1 is the textbook M/M/1 model without a core-speed cap: the server
// speeds up without bound as the allocation grows. Used as a baseline
// and in tests; the core cap of MG1PS is what makes utility saturate.
type MM1 struct {
	DemandMHzs float64
}

var _ Model = MM1{}

// MinRT implements Model; an uncapped server has no floor.
func (m MM1) MinRT() float64 { return 0 }

// StabilityDemand implements Model.
func (m MM1) StabilityDemand(lambda float64) res.CPU {
	return res.CPU(lambda * m.DemandMHzs)
}

// ResponseTime implements Model: RT = d / (Ω − λ·d).
func (m MM1) ResponseTime(lambda float64, alloc res.CPU) float64 {
	if lambda < 0 {
		panic(fmt.Sprintf("queueing: negative arrival rate %v", lambda))
	}
	if alloc <= 0 {
		return math.Inf(1)
	}
	headroom := float64(alloc) - lambda*m.DemandMHzs
	if headroom <= 0 {
		return math.Inf(1)
	}
	return m.DemandMHzs / headroom
}

// DemandFor implements Model: Ω = λ·d + d/τ.
func (m MM1) DemandFor(lambda float64, rt float64) res.CPU {
	if rt <= 0 {
		return res.CPU(math.Inf(1))
	}
	return res.CPU(lambda*m.DemandMHzs + m.DemandMHzs/rt)
}

// MMc is an Erlang-C M/M/c model: c servers of fixed speed CoreSpeed.
// The allocation determines the (fractional, fluid) number of servers
// c = Ω / CoreSpeed. Waiting probability uses the Erlang-C formula with
// continuous c via linear interpolation between ⌊c⌋ and ⌈c⌉.
type MMc struct {
	DemandMHzs float64
	CoreSpeed  res.CPU
}

var _ Model = MMc{}

// MinRT implements Model.
func (m MMc) MinRT() float64 { return m.DemandMHzs / float64(m.CoreSpeed) }

// StabilityDemand implements Model.
func (m MMc) StabilityDemand(lambda float64) res.CPU {
	return res.CPU(lambda * m.DemandMHzs)
}

// erlangC returns the probability that an arrival waits, for c servers
// and offered load a = λ·S (both in Erlangs), via the stable recurrence
// on the Erlang-B blocking probability.
func erlangC(c int, a float64) float64 {
	if c <= 0 {
		return 1
	}
	if a <= 0 {
		return 0
	}
	if float64(c) <= a {
		return 1
	}
	// Erlang-B recurrence: B(0)=1; B(k)=a·B(k-1)/(k+a·B(k-1)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho*(1-b))
}

// ResponseTime implements Model.
func (m MMc) ResponseTime(lambda float64, alloc res.CPU) float64 {
	if lambda < 0 {
		panic(fmt.Sprintf("queueing: negative arrival rate %v", lambda))
	}
	s := m.MinRT()
	if lambda == 0 {
		if alloc <= 0 {
			return math.Inf(1)
		}
		return s
	}
	if alloc <= 0 {
		return math.Inf(1)
	}
	c := float64(alloc) / float64(m.CoreSpeed)
	a := lambda * s // offered load in Erlangs
	if c <= a {
		return math.Inf(1)
	}
	// Interpolate Erlang-C between integer server counts; both floors
	// must themselves be stable or we lean on the stable ceiling only.
	lo, hi := int(math.Floor(c)), int(math.Ceil(c))
	frac := c - math.Floor(c)
	wait := func(ci int) float64 {
		if float64(ci) <= a {
			return math.Inf(1)
		}
		return erlangC(ci, a) * s / (float64(ci) - a)
	}
	var wq float64
	switch {
	case hi == lo || frac == 0:
		wq = wait(lo)
	case math.IsInf(wait(lo), 1):
		// Fractional capacity straddles the stability boundary; scale
		// the stable ceiling's wait by how much of the fraction is
		// still missing (keeps RT finite, monotone, and continuous).
		wq = wait(hi) / frac
	default:
		wq = (1-frac)*wait(lo) + frac*wait(hi)
	}
	return s + wq
}

// DemandFor implements Model by numeric inversion.
func (m MMc) DemandFor(lambda float64, rt float64) res.CPU {
	s := m.MinRT()
	if rt <= s {
		return res.CPU(math.Inf(1))
	}
	if lambda == 0 {
		return 0
	}
	lo := float64(m.StabilityDemand(lambda))
	hi := lo + 64*float64(m.CoreSpeed)
	// Expand until achievable.
	for m.ResponseTime(lambda, res.CPU(hi)) > rt && hi < 1e12 {
		hi *= 2
	}
	got := numeric.BisectDecreasing(func(x float64) float64 {
		return m.ResponseTime(lambda, res.CPU(x))
	}, rt, lo, hi, 1e-6)
	return res.CPU(got)
}

// WeightedRT aggregates per-instance response times into a mean over
// requests, assuming the load balancer splits lambda proportionally to
// the instances' allocations (the policy used by the simulator). Zero
// allocations receive no traffic. It returns +Inf if any loaded
// instance is unstable, and the model floor when nothing is allocated
// but lambda is zero.
func WeightedRT(m Model, lambda float64, allocs []res.CPU) float64 {
	var total res.CPU
	for _, a := range allocs {
		if a < 0 {
			panic(fmt.Sprintf("queueing: negative instance allocation %v", a))
		}
		total += a
	}
	if lambda == 0 {
		return m.MinRT()
	}
	if total <= 0 {
		return math.Inf(1)
	}
	var rt float64
	for _, a := range allocs {
		if a == 0 {
			continue
		}
		frac := float64(a) / float64(total)
		r := m.ResponseTime(lambda*frac, a)
		if math.IsInf(r, 1) {
			return math.Inf(1)
		}
		rt += frac * r
	}
	return rt
}
