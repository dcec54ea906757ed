package utility

import (
	"fmt"
	"math"

	"slaplace/internal/queueing"
	"slaplace/internal/res"
)

// Curve maps a CPU allocation to the utility one workload would derive
// from it *right now*. A Curve is a snapshot: the control loop builds
// fresh curves every cycle from current state (remaining work, measured
// arrival rates) and hands them to the equalizer.
type Curve interface {
	// ID names the workload the curve belongs to.
	ID() string
	// UtilityAt returns the utility of the given allocation; monotone
	// non-decreasing in the allocation.
	UtilityAt(alloc res.CPU) float64
	// DemandFor returns the smallest allocation whose utility is at
	// least u, saturating at MaxUseful when u exceeds MaxUtility.
	DemandFor(u float64) res.CPU
	// MaxUseful is the allocation beyond which utility stops improving.
	MaxUseful() res.CPU
	// MaxUtility is the utility at MaxUseful.
	MaxUtility() float64
}

// minWindowFrac floors the job slack window at this fraction of the
// job's ideal (full-speed) duration, so relative performance stays
// finite and ordered even for jobs whose goal is already unreachable.
const minWindowFrac = 0.1

// JobCurve is the hypothetical-utility curve of one long-running job:
// utility of the projected completion time if, from now on, the job ran
// continuously at the probed allocation. Projection ignores placement
// constraints — that is the "hypothetical" in the paper: it assumes all
// jobs could be placed simultaneously on infinitely divisible capacity.
type JobCurve struct {
	id        string
	now       float64  // current time (s)
	remaining res.Work // remaining work (MHz·s), > 0
	maxSpeed  res.CPU  // the job's speed cap (1 processor in the paper)
	goal      float64  // absolute completion-time goal (s)
	window    float64  // slack normalizer (s), > 0
	fn        Function

	// utilityAtZero / maxUtility cache UtilityAt(0) and
	// UtilityAt(maxSpeed): the equalizer's bracketing and demand
	// inversion probe both bounds on every bisection step, and a curve
	// is immutable after construction.
	utilityAtZero float64
	maxUtility    float64
}

var _ Curve = (*JobCurve)(nil)

// NewJobCurve builds the curve for a job with the given remaining work.
// It panics on non-positive remaining work or max speed — completed
// jobs must not be handed to the optimizer.
func NewJobCurve(id string, now float64, remaining res.Work, maxSpeed res.CPU, goal float64, fn Function) *JobCurve {
	c := new(JobCurve)
	c.Fill(id, now, remaining, maxSpeed, goal, fn)
	return c
}

// Fill (re)initializes the curve in place — the arena-recycling
// counterpart of NewJobCurve, with identical semantics and panics, so a
// controller can rebuild 10^5 job curves per cycle without allocating.
func (c *JobCurve) Fill(id string, now float64, remaining res.Work, maxSpeed res.CPU, goal float64, fn Function) {
	if remaining <= 0 {
		panic(fmt.Sprintf("utility: job %q has non-positive remaining work %v", id, remaining))
	}
	if maxSpeed <= 0 {
		panic(fmt.Sprintf("utility: job %q has non-positive max speed %v", id, maxSpeed))
	}
	if fn == nil {
		fn = DefaultFunction()
	}
	idealDur := remaining.Seconds(maxSpeed)
	ctMin := now + idealDur
	window := math.Max(goal-ctMin, minWindowFrac*idealDur)
	*c = JobCurve{
		id: id, now: now, remaining: remaining, maxSpeed: maxSpeed,
		goal: goal, window: window, fn: fn,
	}
	c.utilityAtZero = c.UtilityAt(0)
	c.maxUtility = c.UtilityAt(maxSpeed)
}

// ID implements Curve.
func (c *JobCurve) ID() string { return c.id }

// perf returns relative performance under a sustained allocation.
func (c *JobCurve) perf(alloc res.CPU) float64 {
	if alloc <= 0 {
		return math.Inf(-1)
	}
	ct := c.now + c.remaining.Seconds(res.Min(alloc, c.maxSpeed))
	return (c.goal - ct) / c.window
}

// UtilityAt implements Curve.
func (c *JobCurve) UtilityAt(alloc res.CPU) float64 { return c.fn.Eval(c.perf(alloc)) }

// MaxUseful implements Curve: allocations above the speed cap are
// wasted.
func (c *JobCurve) MaxUseful() res.CPU { return c.maxSpeed }

// MaxUtility implements Curve.
func (c *JobCurve) MaxUtility() float64 { return c.maxUtility }

// DemandFor implements Curve.
func (c *JobCurve) DemandFor(u float64) res.CPU {
	if u <= c.utilityAtZero {
		return 0
	}
	if u >= c.maxUtility {
		return c.maxSpeed
	}
	return c.demandAtPerf(c.fn.Invert(u))
}

// demandAtPerf is DemandFor past its utility bounds, given pStar =
// fn.Invert(u): the equalizer inverts once per function and sweep, and
// both paths run this one expression shape.
func (c *JobCurve) demandAtPerf(pStar float64) res.CPU {
	if pStar < -math.MaxFloat64 { // -Inf
		return 0
	}
	if pStar > math.MaxFloat64 { // +Inf
		return c.maxSpeed
	}
	ctStar := c.goal - pStar*c.window
	dt := ctStar - c.now
	if dt <= 0 {
		return c.maxSpeed
	}
	alloc := res.CPU(float64(c.remaining) / dt)
	return res.Min(alloc, c.maxSpeed)
}

// JobCompletionUtility scores an *actual* completion against the goal
// using the job's submission-time slack window — the retrospective
// counterpart of the hypothetical utility (used in reports and in the
// completed-jobs metric, not by the controller).
func JobCompletionUtility(fn Function, submitted, goal, idealDur, completed float64) float64 {
	if fn == nil {
		fn = DefaultFunction()
	}
	if idealDur <= 0 {
		panic(fmt.Sprintf("utility: non-positive ideal duration %v", idealDur))
	}
	window := math.Max(goal-submitted-idealDur, minWindowFrac*idealDur)
	return fn.Eval((goal - completed) / window)
}

// satRTFraction: a transactional workload is considered fully satisfied
// once its mean response time has closed 95% of the gap between its SLA
// goal and the bare service time, i.e. at
//
//	RT_sat = MinRT + satRTFraction × (goal − MinRT).
//
// The allocation achieving RT_sat is the workload's maximum useful
// demand — the "CPU demand to achieve maximum utility" in the paper's
// Figure 2. Without a cut-off the inverse queueing model would demand
// unbounded CPU to push RT to its asymptotic floor (in M/G/1-PS,
// halving the distance to the floor doubles the required capacity).
const satRTFraction = 0.05

// TransCurve is the utility curve of one transactional application at
// its current arrival rate, built on a queueing model.
type TransCurve struct {
	id        string
	lambda    float64 // arrival rate, req/s
	rtGoal    float64 // response-time goal τ, s
	model     queueing.Model
	fn        Function
	maxUseful res.CPU

	// utilityAtZero / maxUtility cache UtilityAt(0) and
	// UtilityAt(maxUseful); each evaluates the queueing model, and the
	// equalizer probes both on every bisection step.
	utilityAtZero float64
	maxUtility    float64
}

var _ Curve = (*TransCurve)(nil)

// NewTransCurve builds the curve for a web application. Lambda may be
// zero (idle application: flat curve at its best utility). It panics on
// a non-positive response-time goal or a goal below the model's floor —
// such an SLA can never be met and is a configuration error.
func NewTransCurve(id string, lambda, rtGoal float64, model queueing.Model, fn Function) *TransCurve {
	if lambda < 0 {
		panic(fmt.Sprintf("utility: app %q negative arrival rate %v", id, lambda))
	}
	if rtGoal <= 0 {
		panic(fmt.Sprintf("utility: app %q non-positive RT goal %v", id, rtGoal))
	}
	if rtGoal <= model.MinRT() {
		panic(fmt.Sprintf("utility: app %q RT goal %vs at or below model floor %vs",
			id, rtGoal, model.MinRT()))
	}
	if fn == nil {
		fn = DefaultFunction()
	}
	c := &TransCurve{id: id, lambda: lambda, rtGoal: rtGoal, model: model, fn: fn}
	if lambda == 0 {
		c.maxUseful = 1 // 1 MHz keeps the idle app responsive
	} else {
		rtSat := model.MinRT() + satRTFraction*(rtGoal-model.MinRT())
		c.maxUseful = model.DemandFor(lambda, rtSat)
	}
	c.utilityAtZero = c.UtilityAt(0)
	c.maxUtility = c.UtilityAt(c.maxUseful)
	return c
}

// ID implements Curve.
func (c *TransCurve) ID() string { return c.id }

// UtilityAt implements Curve.
func (c *TransCurve) UtilityAt(alloc res.CPU) float64 {
	rt := c.model.ResponseTime(c.lambda, alloc)
	return c.fn.Eval(c.perfOfRT(rt))
}

func (c *TransCurve) perfOfRT(rt float64) float64 {
	if math.IsInf(rt, 1) {
		return math.Inf(-1)
	}
	return (c.rtGoal - rt) / c.rtGoal
}

// MaxUseful implements Curve.
func (c *TransCurve) MaxUseful() res.CPU { return c.maxUseful }

// MaxUtility implements Curve.
func (c *TransCurve) MaxUtility() float64 { return c.maxUtility }

// DemandFor implements Curve.
func (c *TransCurve) DemandFor(u float64) res.CPU {
	if u <= c.utilityAtZero {
		return 0
	}
	if u >= c.maxUtility {
		return c.maxUseful
	}
	pStar := c.fn.Invert(u)
	if math.IsInf(pStar, -1) {
		return 0
	}
	rtStar := c.rtGoal * (1 - pStar)
	if rtStar <= c.model.MinRT() {
		return c.maxUseful
	}
	d := c.model.DemandFor(c.lambda, rtStar)
	return res.Min(d, c.maxUseful)
}

// Lambda returns the arrival rate the curve was built for.
func (c *TransCurve) Lambda() float64 { return c.lambda }
