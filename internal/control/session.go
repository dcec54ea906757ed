package control

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"slaplace/api"
	"slaplace/internal/core"
	"slaplace/internal/forecast"
	"slaplace/internal/metrics"
	"slaplace/internal/shard"
)

// Recorder series names for the controller-side plan-reuse stats.
const (
	// SeriesPlanMode records how each cycle's plan was produced
	// (core.PlanMode as a float: 0 full, 1 incremental, 2 replayed).
	SeriesPlanMode = "ctrl/planMode"
	// SeriesDemandDelta records the aggregate CPU-demand drift each
	// cycle observed against the previous one, in MHz.
	SeriesDemandDelta = "ctrl/demandDelta"
)

// Session is a long-lived planning conversation with one controller.
// It owns the controller across calls — for the paper's placement
// controller that means the node ledgers and the incremental reuse
// tiers survive from one Propose (or Cycle) to
// the next, so steady-state re-plans stay cheap no matter how the
// snapshots arrive: in process, from the simulator loop, or over the
// wire through the HTTP daemon.
//
// A Session is safe for concurrent use; calls serialize on an internal
// lock (plans are stateful: each one advances the controller's memo).
type Session struct {
	mu   sync.Mutex
	ctrl core.Controller

	cycles int

	// state is the last snapshot planned on the wire path
	// (Propose/ProposeDelta), the base of the next delta; hasNow/lastNow
	// enforce monotonic snapshot time on that path. wirePlan is the wire
	// form of its plan — built by the last Propose, or handed in by the
	// checkpoint a restore was given — and what Export checkpoints; nil
	// when the last plan had no wire form.
	state    *core.State
	wirePlan *api.Plan
	hasNow   bool
	lastNow  float64

	// fc, when set, substitutes predicted per-app demand into each
	// snapshot before the controller plans it (EnableForecast). The
	// retained wire state and checkpoints keep *observed* demand; only
	// the state handed to the controller is forecast-adjusted.
	fc *forecast.Forecaster
}

// Wire-path errors the serving layer distinguishes.
var (
	// ErrNoBaseSnapshot rejects a delta before any full snapshot.
	ErrNoBaseSnapshot = errors.New("control: delta without a base snapshot")
	// ErrBaseCycleMismatch rejects a delta whose baseCycle is not the
	// session's current cycle — the caller missed a response and must
	// re-send a full snapshot.
	ErrBaseCycleMismatch = errors.New("control: delta baseCycle does not match session cycle")
	// ErrTimeRegression rejects a snapshot older than the last one.
	ErrTimeRegression = errors.New("control: snapshot time went backwards")
)

// NewSession opens a session over the given controller.
func NewSession(ctrl core.Controller) (*Session, error) {
	if ctrl == nil {
		return nil, fmt.Errorf("control: nil controller")
	}
	return &Session{ctrl: ctrl}, nil
}

// Name returns the controller's name.
func (s *Session) Name() string { return s.ctrl.Name() }

// seriesLambdaPredSuffix names the per-app recorder series of
// forecast-adjusted demand ("trans/<id>/lambdaPred"): what the
// controller actually planned for when forecasting is enabled
// ("trans/<id>/lambda" keeps the observed rate).
const seriesLambdaPredSuffix = "/lambdaPred"

// EnableForecast turns on predictive planning: every subsequent cycle
// plans against forecast demand instead of the snapshot's observed
// demand. It must be called before the session plans its first cycle —
// switching an already-planning session would make its plan sequence
// diverge from both the reactive and the predictive reference.
func (s *Session) EnableForecast(cfg forecast.Config) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fc != nil {
		return fmt.Errorf("control: forecasting already enabled")
	}
	if s.cycles > 0 {
		return fmt.Errorf("control: cannot enable forecasting after %d planned cycles", s.cycles)
	}
	fc, err := forecast.New(cfg)
	if err != nil {
		return err
	}
	s.fc = fc
	return nil
}

// ForecastConfig returns the forecasting configuration and whether
// forecasting is enabled.
func (s *Session) ForecastConfig() (forecast.Config, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fc == nil {
		return forecast.Config{}, false
	}
	return s.fc.Config(), true
}

// applyForecast substitutes predicted demand into a snapshot about to
// be planned. With forecasting disabled it returns the state untouched
// — the reactive path stays bit-for-bit identical. Otherwise it
// returns a copy whose apps carry predicted Lambda; the original state
// (retained by the wire path, exported into checkpoints) keeps the
// observed rates, so a restore can re-run this exact substitution.
func (s *Session) applyForecast(st *core.State, rec *metrics.Recorder) *core.State {
	if s.fc == nil || len(st.Apps) == 0 {
		return st
	}
	out := &core.State{Now: st.Now, Nodes: st.Nodes, Jobs: st.Jobs}
	out.Apps = append([]core.AppInfo(nil), st.Apps...)
	for i := range out.Apps {
		a := &out.Apps[i]
		pred := s.fc.Forecast(string(a.ID), st.Now, a.Lambda)
		if rec != nil {
			rec.Series("trans/"+string(a.ID)+seriesLambdaPredSuffix).Add(st.Now, pred)
		}
		a.Lambda = pred
	}
	return out
}

// Controller returns the owned controller.
func (s *Session) Controller() core.Controller { return s.ctrl }

// Cycles returns how many plans the session has produced.
func (s *Session) Cycles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cycles
}

// TracksStats reports whether the controller exposes plan-reuse
// statistics (core.PlanStatsProvider).
func (s *Session) TracksStats() bool {
	_, ok := s.ctrl.(core.PlanStatsProvider)
	return ok
}

// PlanStats returns the controller's cumulative plan-reuse statistics,
// zero when the controller does not track them.
func (s *Session) PlanStats() core.PlanStats {
	if sp, ok := s.ctrl.(core.PlanStatsProvider); ok {
		return sp.PlanStats()
	}
	return core.PlanStats{}
}

// plan runs the controller under the session lock and returns the plan
// with the cycle's reuse stats.
func (s *Session) plan(st *core.State) (*core.Plan, core.PlanStats) {
	plan := s.ctrl.Plan(st)
	s.cycles++
	var stats core.PlanStats
	if sp, ok := s.ctrl.(core.PlanStatsProvider); ok {
		stats = sp.PlanStats()
	}
	return plan, stats
}

// recordCycle adds the controller-side series for one cycle: the plan
// reuse stats (when tracked) and the plan diagnostics the paper's
// figures plot.
func (s *Session) recordCycle(rec *metrics.Recorder, st *core.State,
	plan *core.Plan, stats core.PlanStats, now float64) {
	if s.TracksStats() {
		rec.Series(SeriesPlanMode).Add(now, float64(stats.LastMode))
		rec.Series(SeriesDemandDelta).Add(now, float64(stats.LastDemandDelta))
	}
	// The hypothetical utility is only meaningful while incomplete jobs
	// exist; recording zero for an empty backlog would read as "exactly
	// on goal" in the figures.
	if len(st.Jobs) > 0 {
		rec.Series("jobs/hypoUtility").Add(now, plan.HypotheticalJobUtility)
		// Classes in sorted order and apps in snapshot order, so series
		// are created, and exported, in the same order on every run.
		if len(plan.ClassHypoUtility) > 1 {
			for _, class := range slices.Sorted(maps.Keys(plan.ClassHypoUtility)) {
				rec.Series("jobs/"+class+"/hypoUtility").Add(now, plan.ClassHypoUtility[class])
			}
		}
	}
	rec.Series("jobs/demand").Add(now, float64(plan.JobDemand))
	rec.Series("jobs/alloc").Add(now, float64(plan.JobTarget))
	rec.Series("ctrl/equalized").Add(now, plan.EqualizedUtility)
	for _, app := range st.Apps {
		if d, ok := plan.AppDemand[app.ID]; ok {
			rec.Series("trans/"+string(app.ID)+"/demand").Add(now, float64(d))
		}
	}
	for _, app := range st.Apps {
		if a, ok := plan.AppTarget[app.ID]; ok {
			rec.Series("trans/"+string(app.ID)+"/alloc").Add(now, float64(a))
		}
	}
}

// Cycle runs one monitor → plan → actuate cycle over the backend:
// snapshot the world, record its observations, plan, record the plan's
// diagnostics, enact. (t0, now] is the monitoring window. rec may be
// nil to skip all recording (a wire daemon serving many sessions does
// not want unbounded series growth).
func (s *Session) Cycle(b ClusterBackend, rec *metrics.Recorder, t0, now float64) (*core.Plan, core.PlanStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := b.Snapshot(t0, now)
	if rec != nil {
		b.Observe(rec, st, now)
	}
	plan, stats := s.plan(s.applyForecast(st, rec))
	if rec != nil {
		s.recordCycle(rec, st, plan, stats, now)
	}
	b.Enact(plan)
	return plan, stats
}

// Export captures the session's durable state as a wire checkpoint:
// the cycle counter, the time watermark, the last snapshot/plan pair
// of the wire path and a sharded controller's partition bounds. The
// controller's in-memory machinery is not serialized — it is a
// deterministic function of the planned snapshot sequence, so
// RestoreSession rebuilds it by re-planning the exported snapshot.
// Sessions driven through Cycle (an in-process backend, no wire state)
// export a counters-only checkpoint. The checkpoint's Plan is the
// session's own wire plan, shared rather than copied: encode it, do
// not edit it.
func (s *Session) Export() (*api.Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck := &api.Checkpoint{
		SchemaVersion: api.SchemaVersion,
		Controller:    s.ctrl.Name(),
		Cycle:         s.cycles,
		HasNow:        s.hasNow,
		LastNowSec:    s.lastNow,
	}
	if sc, ok := s.ctrl.(*shard.Controller); ok && sc.Shards() > 1 {
		ck.Shards = sc.Shards()
		ck.ShardBounds, ck.ShardReshards = sc.ExportBounds()
	}
	if s.state != nil {
		snap, err := api.FromCoreState(s.state)
		if err != nil {
			return nil, fmt.Errorf("control: export snapshot: %w", err)
		}
		if s.wirePlan == nil {
			return nil, fmt.Errorf("control: export plan: the last plan has no wire form")
		}
		ck.Snapshot, ck.Plan = snap, s.wirePlan
	} else if s.cycles > 0 {
		return nil, fmt.Errorf("control: session has no wire state to checkpoint (driven through Cycle?)")
	}
	if s.fc != nil {
		// The forecaster exports its pre-cycle stash: the snapshot above
		// holds observed demand, so the restore re-plan re-runs this
		// cycle's forecasts from that stash and converges to the live
		// post-cycle forecaster state.
		ck.Forecast = api.ForecastStateFromState(s.fc.Export())
	}
	return ck, nil
}

// ErrCheckpointMismatch rejects a restore whose warm re-plan does not
// reproduce the checkpointed plan — the restoring controller is not
// configured like the one that produced the checkpoint, and continuing
// would silently diverge the cluster.
var ErrCheckpointMismatch = errors.New("control: restored controller does not reproduce the checkpointed plan")

// RestoreSession rebuilds a session from a checkpoint onto a fresh
// controller. The exported snapshot is re-planned once, which warms
// the controller's incremental state to exactly what it held when the
// checkpoint was taken (identical next snapshots replay, drifted ones
// go incremental); the re-planned output is digest-checked against the
// checkpointed plan, so a mis-configured controller is caught here
// instead of corrupting the cluster. A sharded controller first adopts
// the checkpointed partition bounds, so the re-plan splits the cluster
// as the checkpointed cycle did.
func RestoreSession(ctrl core.Controller, ck *api.Checkpoint) (*Session, error) {
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	s, err := NewSession(ctrl)
	if err != nil {
		return nil, err
	}
	if ck.Controller != "" && ck.Controller != ctrl.Name() {
		return nil, fmt.Errorf("control: checkpoint is from controller %q, restoring onto %q",
			ck.Controller, ctrl.Name())
	}
	if sc, ok := ctrl.(*shard.Controller); ok {
		if err := sc.RestoreBounds(ck.ShardBounds, ck.ShardReshards); err != nil {
			return nil, err
		}
	}
	if ck.Forecast != nil {
		fc, err := forecast.Restore(ck.Forecast.State())
		if err != nil {
			return nil, fmt.Errorf("control: checkpoint forecast: %w", err)
		}
		s.fc = fc
	}
	if ck.Snapshot != nil {
		st, err := ck.Snapshot.CoreState()
		if err != nil {
			return nil, fmt.Errorf("control: checkpoint snapshot: %w", err)
		}
		s.state = st
		// The snapshot carries observed demand; re-applying the forecast
		// stage reproduces the exact predicted state the checkpointed
		// plan was computed from (and advances the restored forecaster to
		// its live post-cycle state).
		plan, _ := s.plan(s.applyForecast(st, nil))
		want, err := ck.Plan.CorePlan()
		if err != nil {
			return nil, fmt.Errorf("control: checkpoint plan: %w", err)
		}
		if plan.Digest() != want.Digest() {
			return nil, ErrCheckpointMismatch
		}
		s.wirePlan = ck.Plan
	}
	s.cycles = ck.Cycle
	s.hasNow, s.lastNow = ck.HasNow, ck.LastNowSec
	return s, nil
}

// Propose plans against a full wire snapshot and returns the wire
// plan. The session retains the decoded state, so subsequent calls may
// send a SnapshotDelta via ProposeDelta instead, and the returned plan,
// which the next Export checkpoints as is: treat it as read-only.
// Snapshot time must not go backwards across calls (equal is fine — an
// unchanged snapshot replays the cached plan).
func (s *Session) Propose(snap *api.Snapshot) (*api.Plan, core.PlanStats, error) {
	if err := snap.Validate(); err != nil {
		return nil, core.PlanStats{}, err
	}
	st, err := snap.CoreState()
	if err != nil {
		return nil, core.PlanStats{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.proposeLocked(st)
}

// ProposeDelta plans against the session's retained snapshot patched
// with the delta — the steady-state fast path of the wire protocol.
// The delta's BaseCycle must equal the session's current cycle count.
func (s *Session) ProposeDelta(d *api.SnapshotDelta) (*api.Plan, core.PlanStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == nil {
		return nil, core.PlanStats{}, ErrNoBaseSnapshot
	}
	if d.BaseCycle != s.cycles {
		return nil, core.PlanStats{}, fmt.Errorf("%w: base %d, session at %d",
			ErrBaseCycleMismatch, d.BaseCycle, s.cycles)
	}
	st, err := d.ApplyTo(s.state)
	if err != nil {
		return nil, core.PlanStats{}, err
	}
	return s.proposeLocked(st)
}

func (s *Session) proposeLocked(st *core.State) (*api.Plan, core.PlanStats, error) {
	if s.hasNow && st.Now < s.lastNow {
		return nil, core.PlanStats{}, fmt.Errorf("%w: %v after %v",
			ErrTimeRegression, st.Now, s.lastNow)
	}
	s.state = st
	plan, stats := s.plan(s.applyForecast(st, nil))
	s.hasNow, s.lastNow = true, st.Now
	wire, err := api.FromCorePlan(st, plan)
	s.wirePlan = wire
	if err != nil {
		return nil, stats, err
	}
	return wire, stats, nil
}
