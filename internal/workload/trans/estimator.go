package trans

import (
	"fmt"

	"slaplace/internal/rng"
)

// LambdaEstimator stands in for the paper's workload profiler: instead
// of reading the true arrival-rate function, the controller observes
// *request counts* per monitoring window (Poisson-distributed around
// the integral of the true rate) and smooths them with an exponentially
// weighted moving average. The estimate is what enters the utility
// curves, so monitoring noise propagates into placement exactly as it
// would in the real system.
type LambdaEstimator struct {
	// Alpha is the EWMA smoothing weight of the newest observation,
	// in (0, 1]. Higher reacts faster, lower smooths harder.
	Alpha float64

	estimate float64
	primed   bool
}

// NewLambdaEstimator builds an estimator; it panics on alpha outside
// (0, 1] — a configuration error.
func NewLambdaEstimator(alpha float64) *LambdaEstimator {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("trans: EWMA alpha %v outside (0,1]", alpha))
	}
	return &LambdaEstimator{Alpha: alpha}
}

// Observe ingests one monitoring window: the true pattern is integrated
// over [t0, t1] (trapezoidal, adequate for the smooth patterns used),
// a Poisson count is sampled around that mass, and the EWMA updates.
// It returns the new estimate in req/s.
func (e *LambdaEstimator) Observe(pattern LoadPattern, t0, t1 float64, noise *rng.Stream) float64 {
	if t1 <= t0 {
		panic(fmt.Sprintf("trans: estimator window [%v, %v] inverted", t0, t1))
	}
	// Integrate the rate over the window with a few trapezoids so step
	// and diurnal patterns are captured.
	const steps = 8
	dt := (t1 - t0) / steps
	var mass float64
	prev := pattern.Lambda(t0)
	for i := 1; i <= steps; i++ {
		cur := pattern.Lambda(t0 + float64(i)*dt)
		mass += (prev + cur) / 2 * dt
		prev = cur
	}
	count := mass
	if noise != nil {
		count = float64(noise.Poisson(mass))
	}
	rate := count / (t1 - t0)
	if !e.primed {
		e.estimate = rate
		e.primed = true
	} else {
		e.estimate = e.Alpha*rate + (1-e.Alpha)*e.estimate
	}
	return e.estimate
}
