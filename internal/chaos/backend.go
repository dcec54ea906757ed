package chaos

import (
	"slaplace/internal/control"
	"slaplace/internal/core"
	"slaplace/internal/metrics"
)

// BackendOptions tunes a chaos-wrapped backend.
type BackendOptions struct {
	// World receives the real failures (crashes, departure waves). A
	// zero World degrades those families to pure monitoring lies.
	World World
	// Recorder, when non-nil, receives the chaos series: nodes visible
	// per cycle, injected crashes, stale replays, per-plan migration
	// and suspend counts, and invariant violations.
	Recorder *metrics.Recorder
	// Check, when non-nil, audits every plan against the (perturbed)
	// snapshot it was planned from — core.CheckPlan in the chaos suite.
	Check func(*core.State, *core.Plan) error
	// OnViolation, when non-nil, is called with every Check failure
	// (tests fail the run from here).
	OnViolation func(error)
}

// Backend interposes a chaos Engine between a control cycle and the
// real ClusterBackend: snapshots are perturbed on the way up, plans
// audited on the way down. Install via Loop.WrapBackend.
type Backend struct {
	engine *Engine
	opts   BackendOptions
	inner  control.ClusterBackend

	lastSnap       *core.State
	violations     int
	firstViolation string
}

var _ control.ClusterBackend = (*Backend)(nil)

// NewBackend builds a chaos backend around the engine. Wrap must be
// called before use.
func NewBackend(engine *Engine, opts BackendOptions) *Backend {
	return &Backend{engine: engine, opts: opts}
}

// Wrap installs the real backend and returns the chaos backend, shaped
// for Loop.WrapBackend.
func (b *Backend) Wrap(inner control.ClusterBackend) control.ClusterBackend {
	b.inner = inner
	return b
}

// Violations reports how many plans failed the invariant check.
func (b *Backend) Violations() int { return b.violations }

// FirstViolation returns the first invariant failure's message ("" if
// none).
func (b *Backend) FirstViolation() string { return b.firstViolation }

// Stats returns the engine's injection counters.
func (b *Backend) Stats() Stats { return b.engine.Stats() }

// Snapshot implements control.ClusterBackend: the real snapshot,
// perturbed.
func (b *Backend) Snapshot(t0, now float64) *core.State {
	st := b.engine.Step(b.inner.Snapshot(t0, now), b.opts.World)
	b.lastSnap = st
	if rec := b.opts.Recorder; rec != nil {
		rec.Series("chaos/nodesVisible").Add(now, float64(len(st.Nodes)))
		s := b.engine.Stats()
		rec.Series("chaos/crashes").Add(now, float64(s.Crashes))
		rec.Series("chaos/staleReplays").Add(now, float64(s.Duplicates+s.Regressions))
	}
	return st
}

// Observe implements control.ClusterBackend.
func (b *Backend) Observe(rec *metrics.Recorder, st *core.State, now float64) {
	b.inner.Observe(rec, st, now)
}

// Enact implements control.ClusterBackend: audit the plan against the
// snapshot the controller actually saw, then let the real backend
// actuate it.
func (b *Backend) Enact(plan *core.Plan) {
	if b.opts.Check != nil && b.lastSnap != nil {
		if err := b.opts.Check(b.lastSnap, plan); err != nil {
			b.violations++
			if b.firstViolation == "" {
				b.firstViolation = err.Error()
			}
			if b.opts.OnViolation != nil {
				b.opts.OnViolation(err)
			}
		}
	}
	if rec := b.opts.Recorder; rec != nil && b.lastSnap != nil {
		rec.Series("chaos/planMigrations").Add(b.lastSnap.Now, float64(plan.Count(core.MigrateJob)))
		rec.Series("chaos/planSuspends").Add(b.lastSnap.Now, float64(plan.Count(core.SuspendJob)))
	}
	b.inner.Enact(plan)
}

// FailedActions implements control.ClusterBackend.
func (b *Backend) FailedActions() int { return b.inner.FailedActions() }
