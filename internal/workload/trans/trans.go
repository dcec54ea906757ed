package trans

import (
	"fmt"
	"math"
	"sort"

	"slaplace/internal/cluster"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/rng"
	"slaplace/internal/sim"
	"slaplace/internal/utility"
	"slaplace/internal/vm"
)

// AppID identifies a web application.
type AppID string

// Config describes a web application and its SLA.
type Config struct {
	// ID names the application.
	ID AppID
	// RTGoal is the mean response-time SLA in seconds.
	RTGoal float64
	// Model predicts response time from (λ, allocation).
	Model queueing.Model
	// Fn maps relative performance to utility; nil = default.
	Fn utility.Function
	// Pattern drives the arrival rate over time.
	Pattern LoadPattern
	// InstanceMem is the memory footprint of one instance VM.
	InstanceMem res.Memory
	// MaxPerInstance caps one instance's useful CPU (typically a
	// node's capacity or a license limit).
	MaxPerInstance res.CPU
	// MinInstances/MaxInstances bound the horizontal scale. Max = 0
	// means unbounded.
	MinInstances int
	MaxInstances int
	// NoiseCV is the coefficient of variation of multiplicative
	// lognormal observation noise on measured response times (0 = exact
	// measurements).
	NoiseCV float64
	// EstimateLambda makes the controller consume a *monitored*
	// arrival rate — Poisson-sampled per-cycle request counts smoothed
	// by an EWMA — instead of the oracle pattern value, mirroring the
	// paper's profiler.
	EstimateLambda bool
	// EWMAAlpha is the estimator's smoothing weight (0 = default 0.5).
	EWMAAlpha float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ID == "" {
		return fmt.Errorf("trans: empty app ID")
	}
	if c.RTGoal <= 0 {
		return fmt.Errorf("trans: app %q non-positive RT goal %v", c.ID, c.RTGoal)
	}
	if c.Model == nil {
		return fmt.Errorf("trans: app %q has no queueing model", c.ID)
	}
	if c.RTGoal <= c.Model.MinRT() {
		return fmt.Errorf("trans: app %q RT goal %v at or below model floor %v",
			c.ID, c.RTGoal, c.Model.MinRT())
	}
	if c.Pattern == nil {
		return fmt.Errorf("trans: app %q has no load pattern", c.ID)
	}
	if c.InstanceMem <= 0 {
		return fmt.Errorf("trans: app %q non-positive instance memory %v", c.ID, c.InstanceMem)
	}
	if c.MaxPerInstance <= 0 {
		return fmt.Errorf("trans: app %q non-positive per-instance cap %v", c.ID, c.MaxPerInstance)
	}
	if c.MinInstances < 0 || (c.MaxInstances > 0 && c.MaxInstances < c.MinInstances) {
		return fmt.Errorf("trans: app %q instance bounds [%d, %d] invalid",
			c.ID, c.MinInstances, c.MaxInstances)
	}
	if c.NoiseCV < 0 {
		return fmt.Errorf("trans: app %q negative noise CV %v", c.ID, c.NoiseCV)
	}
	if c.EWMAAlpha < 0 || c.EWMAAlpha > 1 {
		return fmt.Errorf("trans: app %q EWMA alpha %v outside [0,1]", c.ID, c.EWMAAlpha)
	}
	return nil
}

// Fun returns the utility function, defaulting when nil.
func (c Config) Fun() utility.Function {
	if c.Fn == nil {
		return utility.DefaultFunction()
	}
	return c.Fn
}

// App is a deployed web application.
type App struct {
	cfg       Config
	rt        *Runtime
	instances map[cluster.NodeID]vm.ID
	estimator *LambdaEstimator // nil unless cfg.EstimateLambda
}

// Config returns the application's configuration.
func (a *App) Config() Config { return a.cfg }

// ID returns the application's identifier.
func (a *App) ID() AppID { return a.cfg.ID }

// Runtime hosts the web applications on the shared vm substrate.
type Runtime struct {
	eng   *sim.Engine
	mgr   *vm.Manager
	apps  map[AppID]*App
	order []AppID
	noise *rng.Stream
}

// NewRuntime builds a web runtime. The noise stream feeds observation
// noise; it may be nil when every app has NoiseCV = 0.
func NewRuntime(eng *sim.Engine, mgr *vm.Manager, noise *rng.Stream) *Runtime {
	rt := &Runtime{eng: eng, mgr: mgr, apps: make(map[AppID]*App), noise: noise}
	// Drop instances living on failed nodes.
	mgr.AddEvictListener(rt.evicted)
	return rt
}

// Deploy registers an application. Instances are placed later by the
// controller via AddInstance.
func (rt *Runtime) Deploy(cfg Config) (*App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, dup := rt.apps[cfg.ID]; dup {
		return nil, fmt.Errorf("trans: duplicate app %q", cfg.ID)
	}
	a := &App{cfg: cfg, rt: rt, instances: make(map[cluster.NodeID]vm.ID)}
	if cfg.EstimateLambda {
		alpha := cfg.EWMAAlpha
		if alpha == 0 {
			alpha = 0.5
		}
		a.estimator = NewLambdaEstimator(alpha)
	}
	rt.apps[cfg.ID] = a
	rt.order = append(rt.order, cfg.ID)
	return a, nil
}

// App looks an application up by ID.
func (rt *Runtime) App(id AppID) (*App, bool) {
	a, ok := rt.apps[id]
	return a, ok
}

// Apps returns the applications in deployment order.
func (rt *Runtime) Apps() []*App {
	out := make([]*App, 0, len(rt.order))
	for _, id := range rt.order {
		out = append(out, rt.apps[id])
	}
	return out
}

// evicted drops instance records whose VM was kicked off a failed node.
func (rt *Runtime) evicted(vid vm.ID, _ cluster.NodeID) {
	for _, a := range rt.apps {
		for node, id := range a.instances {
			if id == vid {
				delete(a.instances, node)
				// The suspended instance image is useless to a stateless
				// web tier; discard the VM entirely.
				if v, ok := rt.mgr.VM(vid); ok && v.State() != vm.Stopped {
					if err := rt.mgr.Stop(vid); err != nil {
						panic(fmt.Sprintf("trans: stopping evicted instance %q: %v", vid, err))
					}
				}
				return
			}
		}
	}
}

// instanceVMID derives the VM name of an app instance.
func instanceVMID(app AppID, node cluster.NodeID) vm.ID {
	return vm.ID("webvm/" + string(app) + "/" + string(node))
}

// AddInstance places a new instance on a node with an initial share.
func (a *App) AddInstance(node cluster.NodeID, share res.CPU) error {
	if _, dup := a.instances[node]; dup {
		return fmt.Errorf("trans: app %q already has an instance on %q", a.cfg.ID, node)
	}
	if a.cfg.MaxInstances > 0 && len(a.instances) >= a.cfg.MaxInstances {
		return fmt.Errorf("trans: app %q at max instances (%d)", a.cfg.ID, a.cfg.MaxInstances)
	}
	vid := instanceVMID(a.cfg.ID, node)
	// A previous instance on this node leaves a stopped VM behind;
	// clear it so the ID can be reused.
	if v, ok := a.rt.mgr.VM(vid); ok {
		if v.State() != vm.Stopped {
			return fmt.Errorf("trans: instance VM %q still alive in state %v", vid, v.State())
		}
		if err := a.rt.mgr.Forget(vid); err != nil {
			return err
		}
	}
	if err := a.rt.mgr.Provision(vid, node, a.cfg.InstanceMem, a.cfg.MaxPerInstance, share); err != nil {
		return err
	}
	a.instances[node] = vid
	return nil
}

// RemoveInstance stops the instance on a node.
func (a *App) RemoveInstance(node cluster.NodeID) error {
	vid, ok := a.instances[node]
	if !ok {
		return fmt.Errorf("trans: app %q has no instance on %q", a.cfg.ID, node)
	}
	if len(a.instances) <= a.cfg.MinInstances {
		return fmt.Errorf("trans: app %q at min instances (%d)", a.cfg.ID, a.cfg.MinInstances)
	}
	if err := a.rt.mgr.Stop(vid); err != nil {
		return err
	}
	delete(a.instances, node)
	return nil
}

// SetInstanceShare adjusts the CPU share of the instance on a node.
func (a *App) SetInstanceShare(node cluster.NodeID, share res.CPU) error {
	vid, ok := a.instances[node]
	if !ok {
		return fmt.Errorf("trans: app %q has no instance on %q", a.cfg.ID, node)
	}
	return a.rt.mgr.SetShare(vid, share)
}

// InstanceNodes returns the nodes hosting instances, sorted for
// deterministic iteration.
func (a *App) InstanceNodes() []cluster.NodeID {
	out := make([]cluster.NodeID, 0, len(a.instances))
	for n := range a.instances {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InstanceShare returns the share of the instance on a node (0 if none).
func (a *App) InstanceShare(node cluster.NodeID) res.CPU {
	vid, ok := a.instances[node]
	if !ok {
		return 0
	}
	v, ok := a.rt.mgr.VM(vid)
	if !ok {
		return 0
	}
	return v.Share()
}

// rates returns the instances' current effective rates.
func (a *App) rates() []res.CPU {
	out := make([]res.CPU, 0, len(a.instances))
	for _, node := range a.InstanceNodes() {
		v, ok := a.rt.mgr.VM(a.instances[node])
		if !ok {
			continue
		}
		out = append(out, v.Rate())
	}
	return out
}

// Lambda returns the true arrival rate at time t.
func (a *App) Lambda(t float64) float64 { return a.cfg.Pattern.Lambda(t) }

// MonitoredLambda returns the arrival rate the controller should see
// for the monitoring window [t0, t1]: the profiler estimate when
// estimation is enabled (observing the window and updating the EWMA),
// the oracle pattern value otherwise. A degenerate window falls back
// to the oracle.
func (a *App) MonitoredLambda(t0, t1 float64) float64 {
	if a.estimator == nil || t1 <= t0 {
		return a.Lambda(t1)
	}
	return a.estimator.Observe(a.cfg.Pattern, t0, t1, a.rt.noise)
}

// TrueRT returns the model mean response time under the current
// effective instance rates at time t (the simulator's ground truth,
// load-balanced proportionally to rates).
func (a *App) TrueRT(t float64) float64 {
	return queueing.WeightedRT(a.cfg.Model, a.Lambda(t), a.rates())
}

// ObservedRT returns the measured response time: ground truth with
// multiplicative lognormal noise of the configured CV. Infinite RT
// (overload) is observed as infinite.
func (a *App) ObservedRT(t float64) float64 {
	rt := a.TrueRT(t)
	if a.cfg.NoiseCV == 0 || math.IsInf(rt, 1) {
		return rt
	}
	if a.rt.noise == nil {
		return rt
	}
	// Lognormal with unit mean: sigma² = ln(1+cv²), mu = -sigma²/2.
	sigma2 := math.Log(1 + a.cfg.NoiseCV*a.cfg.NoiseCV)
	factor := a.rt.noise.LogNormal(-sigma2/2, math.Sqrt(sigma2))
	return rt * factor
}

// MeasuredUtility scores an observed response time against the SLA —
// the "actual utility" the paper plots for the transactional workload.
func (a *App) MeasuredUtility(observedRT float64) float64 {
	if math.IsInf(observedRT, 1) {
		return a.cfg.Fun().Eval(math.Inf(-1))
	}
	return a.cfg.Fun().Eval((a.cfg.RTGoal - observedRT) / a.cfg.RTGoal)
}
