package forecast

import (
	"fmt"
	"math"
	"sort"
)

// Corrector is the correction-factor feedback loop (the Dynamo SLA
// planner's shape): an EWMA of the observed/predicted ratio, clamped
// to [CorrectionMin, CorrectionMax], that scales future forecasts.
// Because the factor multiplies the raw prediction and the ratio is
// measured against the *corrected* prediction, a systematic model bias
// converges to a stable compensating factor instead of compounding.
// The zero value is a disabled corrector (factor 1).
type Corrector struct {
	alpha   float64
	factor  float64
	samples int
}

// NewCorrector builds a corrector with the given EWMA weight; alpha 0
// disables it.
func NewCorrector(alpha float64) Corrector {
	return Corrector{alpha: alpha, factor: 1}
}

// Observe feeds back one cycle: the demand that was predicted for it
// and the demand that was then observed. Non-finite or non-positive
// predictions contribute nothing (no ratio to learn from).
func (c *Corrector) Observe(predicted, observed float64) {
	if c.alpha <= 0 {
		return
	}
	if !(predicted > 1e-12) || math.IsInf(predicted, 0) {
		return
	}
	if math.IsNaN(observed) || math.IsInf(observed, 0) || observed < 0 {
		return
	}
	ratio := observed / predicted
	if ratio > corrRatioCap {
		ratio = corrRatioCap
	}
	if ratio < 1/corrRatioCap {
		ratio = 1 / corrRatioCap
	}
	c.factor = c.alpha*ratio + (1-c.alpha)*c.factor
	if c.factor < CorrectionMin {
		c.factor = CorrectionMin
	}
	if c.factor > CorrectionMax {
		c.factor = CorrectionMax
	}
	c.samples++
}

// Factor returns the current multiplicative correction (1 when
// disabled or unprimed).
func (c *Corrector) Factor() float64 {
	if c.factor == 0 {
		return 1
	}
	return c.factor
}

// appState is one application's forecasting state.
type appState struct {
	hist    []float64 // chronological observation window
	corr    Corrector
	hasPred bool
	predFor float64 // cycle time the cached prediction was issued for
	pred    float64
}

func (a *appState) push(v float64, window int) {
	a.hist = append(a.hist, v)
	if len(a.hist) > window {
		// Shift in place; the window is small and this keeps the slice
		// from growing without bound.
		copy(a.hist, a.hist[len(a.hist)-window:])
		a.hist = a.hist[:window]
	}
}

// Forecaster ingests each cycle's observed per-app demand and emits
// the demand the planner should size the next horizon for. It is the
// stateful glue between predictors and the control loop:
//
//   - Cycle detection by snapshot time: a call with a later time opens
//     a new cycle (feed back correction, extend history, predict); a
//     call with the same time is a replay and returns the cached
//     prediction without re-observing — the controller's replay tier
//     and the checkpoint restore re-plan both depend on this.
//   - Before the first observation of each cycle, the whole pre-cycle
//     state is stashed; Export returns that stash, so a restored
//     session re-planning the checkpointed snapshot re-applies the
//     exact same forecasts and lands in the exact same post-cycle
//     state (see control.RestoreSession).
//
// A Forecaster is not safe for concurrent use; the owning Session
// serializes calls.
type Forecaster struct {
	cfg  Config
	pred Predictor

	hasNow  bool
	lastNow float64
	apps    map[string]*appState
	stash   *State
}

// New builds a forecaster (zero config fields take defaults).
func New(cfg Config) (*Forecaster, error) {
	pred, err := NewPredictor(cfg)
	if err != nil {
		return nil, err
	}
	return &Forecaster{
		cfg:  cfg.withDefaults(),
		pred: pred,
		apps: make(map[string]*appState),
	}, nil
}

// Config returns the (defaulted) configuration.
func (f *Forecaster) Config() Config { return f.cfg }

// Forecast records one application's observed demand for the cycle at
// the given snapshot time and returns the predicted demand for the
// next horizon. Calls within one cycle (same now) replay the cached
// prediction; a time regression passes the observation through
// untouched (the session layer rejects those snapshots anyway).
func (f *Forecaster) Forecast(id string, now, observed float64) float64 {
	if math.IsNaN(observed) || math.IsInf(observed, 0) || observed < 0 {
		observed = 0
	}
	if f.hasNow && now < f.lastNow {
		return observed
	}
	if !f.hasNow || now > f.lastNow {
		f.stash = f.snapshot()
		f.hasNow, f.lastNow = true, now
	}
	a := f.apps[id]
	if a == nil {
		a = &appState{corr: NewCorrector(f.cfg.CorrectionAlpha)}
		f.apps[id] = a
	}
	if a.hasPred && a.predFor == now {
		return a.pred
	}
	if a.hasPred {
		a.corr.Observe(a.pred, observed)
	}
	a.push(observed, f.cfg.Window)
	p := sanitize(f.pred.Predict(a.hist)*a.corr.Factor(), observed)
	a.hasPred, a.predFor, a.pred = true, now, p
	return p
}

// AppState is one application's exported forecasting state.
type AppState struct {
	ID                string
	History           []float64
	Factor            float64
	CorrectionSamples int
	HasPred           bool
	PredFor           float64
	Pred              float64
}

// State is a forecaster's complete exported state: enough to rebuild
// one that forecasts identically from the next cycle on. Apps are
// sorted by ID (canonical form for wire digests).
type State struct {
	Config  Config
	HasNow  bool
	LastNow float64
	Apps    []AppState
}

// snapshot captures the current state (deep copy, apps sorted by ID).
func (f *Forecaster) snapshot() *State {
	st := &State{Config: f.cfg, HasNow: f.hasNow, LastNow: f.lastNow}
	ids := make([]string, 0, len(f.apps))
	for id := range f.apps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a := f.apps[id]
		st.Apps = append(st.Apps, AppState{
			ID:                id,
			History:           append([]float64(nil), a.hist...),
			Factor:            a.corr.Factor(),
			CorrectionSamples: a.corr.samples,
			HasPred:           a.hasPred,
			PredFor:           a.predFor,
			Pred:              a.pred,
		})
	}
	return st
}

// Export returns the state to checkpoint: the stash taken before the
// current cycle's first observation when one exists, the live state
// otherwise (no cycle has run since construction or restore). Paired
// with the session's checkpointed snapshot — which holds *observed*
// demand — a restore re-runs the cycle's forecasts and arrives at the
// live post-cycle state (see Restore).
func (f *Forecaster) Export() *State {
	if f.stash != nil {
		return f.stash.clone()
	}
	return f.snapshot()
}

func (s *State) clone() *State {
	out := &State{Config: s.Config, HasNow: s.HasNow, LastNow: s.LastNow}
	for _, a := range s.Apps {
		a.History = append([]float64(nil), a.History...)
		out.Apps = append(out.Apps, a)
	}
	return out
}

// Validate reports exported-state errors (the wire layer calls this on
// decoded checkpoints).
func (s *State) Validate() error {
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if s.HasNow && (math.IsNaN(s.LastNow) || math.IsInf(s.LastNow, 0)) {
		return fmt.Errorf("forecast: non-finite state time %v", s.LastNow)
	}
	window := s.Config.withDefaults().Window
	for i, a := range s.Apps {
		if a.ID == "" {
			return fmt.Errorf("forecast: state app %d has empty ID", i)
		}
		if i > 0 && s.Apps[i-1].ID >= a.ID {
			return fmt.Errorf("forecast: state apps not sorted by ID at %q", a.ID)
		}
		if len(a.History) > window {
			return fmt.Errorf("forecast: app %q history %d exceeds window %d",
				a.ID, len(a.History), window)
		}
		for j, v := range a.History {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("forecast: app %q history[%d] = %v", a.ID, j, v)
			}
		}
		if a.Factor != 0 && (a.Factor < CorrectionMin || a.Factor > CorrectionMax) ||
			math.IsNaN(a.Factor) {
			return fmt.Errorf("forecast: app %q correction factor %v outside [%v, %v]",
				a.ID, a.Factor, CorrectionMin, CorrectionMax)
		}
		if a.CorrectionSamples < 0 {
			return fmt.Errorf("forecast: app %q negative correction samples", a.ID)
		}
		if a.HasPred && (math.IsNaN(a.Pred) || math.IsInf(a.Pred, 0) || a.Pred < 0 ||
			math.IsNaN(a.PredFor) || math.IsInf(a.PredFor, 0)) {
			return fmt.Errorf("forecast: app %q invalid cached prediction %v@%v",
				a.ID, a.Pred, a.PredFor)
		}
	}
	return nil
}

// Restore rebuilds a forecaster from exported state. The restored
// instance forecasts identically to the exporter from its next cycle
// on.
func Restore(st *State) (*Forecaster, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	f, err := New(st.Config)
	if err != nil {
		return nil, err
	}
	f.hasNow, f.lastNow = st.HasNow, st.LastNow
	for _, a := range st.Apps {
		corr := NewCorrector(f.cfg.CorrectionAlpha)
		if a.Factor != 0 {
			corr.factor = a.Factor
		}
		corr.samples = a.CorrectionSamples
		f.apps[a.ID] = &appState{
			hist:    append([]float64(nil), a.History...),
			corr:    corr,
			hasPred: a.HasPred,
			predFor: a.PredFor,
			pred:    a.Pred,
		}
	}
	return f, nil
}
