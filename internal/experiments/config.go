package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"slaplace/api"
	"slaplace/internal/baseline"
	"slaplace/internal/chaos"
	"slaplace/internal/control"
	"slaplace/internal/core"
	"slaplace/internal/forecast"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/shard"
	"slaplace/internal/utility"
	"slaplace/internal/vm"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// ScenarioJSON is the on-disk scenario format consumed by
// cmd/slaplace-sim -config. It is a flattened, tagged mirror of
// Scenario: controllers, queueing models, utility functions and load
// patterns are selected by name since interfaces cannot round-trip
// through JSON.
type ScenarioJSON struct {
	Name    string  `json:"name"`
	Seed    uint64  `json:"seed"`
	Horizon float64 `json:"horizon"`

	Nodes   int     `json:"nodes"`
	NodeCPU float64 `json:"nodeCPUMHz"`
	NodeMem int64   `json:"nodeMemMB"`

	// Costs: zero values mean instant actuation; omit for defaults via
	// "defaultCosts": true.
	DefaultCosts bool     `json:"defaultCosts"`
	Costs        vm.Costs `json:"costs"`

	Controller ControllerJSON `json:"controller"`

	CyclePeriod    float64 `json:"cyclePeriod"`
	FirstCycle     float64 `json:"firstCycle"`
	ActuationDelay float64 `json:"actuationDelay"`
	SamplePeriod   float64 `json:"samplePeriod"`

	Jobs   []JobStreamJSON `json:"jobs"`
	Apps   []AppJSON       `json:"apps"`
	Faults []NodeFault     `json:"faults"`

	// Chaos, when present, arms the seeded fault-injection engine for
	// the run (internal/chaos). A zero (or omitted) seed falls back to
	// the scenario seed.
	Chaos *chaos.Config `json:"chaos"`
}

// ControllerJSON is the controller spec the scenario format and both
// CLIs build from: it selects and tunes a controller by kind.
type ControllerJSON struct {
	// Kind: "utility" (default), "fcfs", "edf", "fairshare", "static".
	Kind string `json:"kind"`
	// Shards > 1 wraps the controller in a sharded planner: the
	// cluster is partitioned into that many shards, planned
	// concurrently by one controller of the selected kind each, and
	// the plans merged (internal/shard).
	Shards int `json:"shards"`
	// BatchFraction configures the static partition controller.
	BatchFraction float64 `json:"batchFraction"`
	// Utility-controller knobs; zero values take the defaults.
	ShareTolerance        float64 `json:"shareTolerance"`
	MigrationThreshold    float64 `json:"migrationThreshold"`
	MigrationGain         float64 `json:"migrationGain"`
	MaxMigrationsPerCycle *int    `json:"maxMigrationsPerCycle"`
	ChurnOblivious        bool    `json:"churnOblivious"`
	// Forecast enables predictive planning for any controller kind:
	// the control session forecasts each application's next-cycle
	// demand and plans against the prediction. It is the plan-request
	// hint's block: an omitted correctionAlpha means the default
	// weight, an explicit 0 disables correction feedback.
	Forecast *api.ForecastConfig `json:"forecast"`
}

// JobStreamJSON mirrors JobStream.
type JobStreamJSON struct {
	Name         string        `json:"name"`
	WorkMHzs     float64       `json:"workMHzs"`
	MaxSpeedMHz  float64       `json:"maxSpeedMHz"`
	MemMB        int64         `json:"memMB"`
	GoalStretch  float64       `json:"goalStretch"`
	Fn           FnJSON        `json:"utility"`
	Phases       []batch.Phase `json:"phases"`
	MaxJobs      int           `json:"maxJobs"`
	InitialBurst int           `json:"initialBurst"`
	IDPrefix     string        `json:"idPrefix"`
}

// FnJSON selects a utility function: "linear" (default, floor -1) or
// "sigmoid" with steepness K.
type FnJSON struct {
	Kind  string  `json:"kind"`
	Floor float64 `json:"floor"`
	K     float64 `json:"k"`
}

// AppJSON mirrors trans.Config with an MG1PS model.
type AppJSON struct {
	ID             string      `json:"id"`
	RTGoal         float64     `json:"rtGoal"`
	DemandMHzs     float64     `json:"demandMHzs"`
	CoreSpeedMHz   float64     `json:"coreSpeedMHz"`
	Fn             FnJSON      `json:"utility"`
	Pattern        PatternJSON `json:"pattern"`
	InstanceMemMB  int64       `json:"instanceMemMB"`
	MaxPerInstance float64     `json:"maxPerInstanceMHz"`
	MinInstances   int         `json:"minInstances"`
	MaxInstances   int         `json:"maxInstances"`
	NoiseCV        float64     `json:"noiseCV"`
	EstimateLambda bool        `json:"estimateLambda"`
	EWMAAlpha      float64     `json:"ewmaAlpha"`
}

// PatternJSON selects a load pattern: "constant", "step", "diurnal",
// or "trace".
type PatternJSON struct {
	Kind      string    `json:"kind"`
	Rate      float64   `json:"rate"`      // constant
	Times     []float64 `json:"times"`     // step / trace
	Rates     []float64 `json:"rates"`     // step / trace
	Base      float64   `json:"base"`      // diurnal
	Amplitude float64   `json:"amplitude"` // diurnal
	Period    float64   `json:"period"`    // diurnal
	Phase     float64   `json:"phase"`     // diurnal
}

// LoadScenario parses a JSON scenario and builds it.
func LoadScenario(r io.Reader) (Scenario, error) {
	var sj ScenarioJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sj); err != nil {
		return Scenario{}, fmt.Errorf("experiments: parsing scenario: %w", err)
	}
	return sj.Build()
}

// Build converts the JSON form into a runnable Scenario (also
// validated).
func (sj ScenarioJSON) Build() (Scenario, error) {
	sc := Scenario{
		Name:    sj.Name,
		Seed:    sj.Seed,
		Horizon: sj.Horizon,
		Nodes:   sj.Nodes,
		NodeCPU: res.CPU(sj.NodeCPU),
		NodeMem: res.Memory(sj.NodeMem),
		Loop: control.Options{
			CyclePeriod:    sj.CyclePeriod,
			FirstCycle:     sj.FirstCycle,
			ActuationDelay: sj.ActuationDelay,
			SamplePeriod:   sj.SamplePeriod,
		},
	}
	sc.Costs = sj.Costs
	if sj.DefaultCosts {
		sc.Costs = vm.DefaultCosts()
	}
	ctrl, err := sj.Controller.Build()
	if err != nil {
		return Scenario{}, err
	}
	sc.Controller = ctrl
	if sc.Forecast, err = sj.Controller.ForecastConfig(); err != nil {
		return Scenario{}, err
	}

	for i, js := range sj.Jobs {
		fn, err := js.Fn.Build()
		if err != nil {
			return Scenario{}, fmt.Errorf("experiments: job stream %d: %w", i, err)
		}
		stream := JobStream{
			Class: batch.Class{
				Name:        js.Name,
				Work:        res.Work(js.WorkMHzs),
				MaxSpeed:    res.CPU(js.MaxSpeedMHz),
				Mem:         res.Memory(js.MemMB),
				GoalStretch: js.GoalStretch,
				Fn:          fn,
			},
			Phases:       js.Phases,
			MaxJobs:      js.MaxJobs,
			InitialBurst: js.InitialBurst,
			IDPrefix:     js.IDPrefix,
		}
		sc.Jobs = append(sc.Jobs, stream)
	}

	for i, aj := range sj.Apps {
		cfg, err := aj.Build()
		if err != nil {
			return Scenario{}, fmt.Errorf("experiments: app %d: %w", i, err)
		}
		sc.Apps = append(sc.Apps, cfg)
	}
	sc.Faults = sj.Faults
	if sj.Chaos != nil {
		if err := sj.Chaos.Validate(); err != nil {
			return Scenario{}, fmt.Errorf("experiments: chaos: %w", err)
		}
		sc.Chaos = sj.Chaos
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Build constructs the selected controller, wrapped in a sharded
// planner when Shards > 1.
func (cj ControllerJSON) Build() (core.Controller, error) {
	newCtrl, err := cj.Factory()
	if err != nil {
		return nil, err
	}
	return shard.Wrap(cj.Shards, newCtrl), nil
}

// ForecastConfig resolves the forecast block: nil plans reactively.
func (cj ControllerJSON) ForecastConfig() (*forecast.Config, error) {
	if cj.Forecast == nil {
		return nil, nil
	}
	fc := cj.Forecast.Config()
	if err := fc.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: forecast: %w", err)
	}
	return &fc, nil
}

// rejectUtilityKnobs reports an error when any utility-controller
// tuning key is set on a controller kind that ignores it. Unknown keys
// are caught by the JSON decoder; these are *known* keys that would
// otherwise be silently dropped — a typo'd experiment config must not
// quietly run a differently-tuned controller.
func (cj ControllerJSON) rejectUtilityKnobs() error {
	if cj.ShareTolerance != 0 || cj.MigrationThreshold != 0 || cj.MigrationGain != 0 ||
		cj.MaxMigrationsPerCycle != nil || cj.ChurnOblivious {
		return fmt.Errorf("experiments: controller kind %q takes no utility-controller knobs "+
			"(shareTolerance, migrationThreshold, migrationGain, maxMigrationsPerCycle, churnOblivious)", cj.Kind)
	}
	return nil
}

// Factory validates the spec and returns a constructor of fresh,
// unsharded controllers of the selected kind: one per shard, replica
// or daemon session.
func (cj ControllerJSON) Factory() (func() core.Controller, error) {
	if cj.Shards < 0 {
		return nil, fmt.Errorf("experiments: negative controller shards %d", cj.Shards)
	}
	var ctrl core.Controller // the stateless baselines share one value
	switch cj.Kind {
	case "", "utility":
		if cj.BatchFraction != 0 {
			return nil, fmt.Errorf("experiments: utility controller takes no batchFraction (did you mean kind %q?)", "static")
		}
		cfg := core.DefaultConfig()
		if cj.ShareTolerance != 0 {
			cfg.ShareTolerance = cj.ShareTolerance
		}
		if cj.MigrationThreshold != 0 {
			cfg.MigrationThreshold = cj.MigrationThreshold
		}
		if cj.MigrationGain != 0 {
			cfg.MigrationGain = cj.MigrationGain
		}
		if cj.MaxMigrationsPerCycle != nil {
			cfg.MaxMigrationsPerCycle = *cj.MaxMigrationsPerCycle
		}
		if cj.ChurnOblivious {
			cfg.ChurnAware = false
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return func() core.Controller { return core.New(cfg) }, nil
	case "fcfs", "edf", "fairshare":
		if err := cj.rejectUtilityKnobs(); err != nil {
			return nil, err
		}
		if cj.BatchFraction != 0 {
			return nil, fmt.Errorf("experiments: controller kind %q takes no batchFraction", cj.Kind)
		}
		switch cj.Kind {
		case "fcfs":
			ctrl = baseline.FCFS{}
		case "edf":
			ctrl = baseline.EDF{}
		default:
			ctrl = baseline.FairShare{}
		}
	case "static":
		if err := cj.rejectUtilityKnobs(); err != nil {
			return nil, err
		}
		if cj.BatchFraction <= 0 || cj.BatchFraction >= 1 {
			return nil, fmt.Errorf("experiments: static controller needs batchFraction in (0,1), got %v", cj.BatchFraction)
		}
		ctrl = baseline.Static{BatchFraction: cj.BatchFraction}
	default:
		return nil, fmt.Errorf("experiments: unknown controller kind %q", cj.Kind)
	}
	return func() core.Controller { return ctrl }, nil
}

// Build constructs the selected utility function (nil = default).
func (fj FnJSON) Build() (utility.Function, error) {
	switch fj.Kind {
	case "":
		return nil, nil
	case "linear":
		floor := fj.Floor
		if floor == 0 {
			floor = -1
		}
		if floor >= 1 {
			return nil, fmt.Errorf("experiments: linear utility floor %v >= 1", floor)
		}
		return utility.Linear{Floor: floor}, nil
	case "sigmoid":
		if fj.K <= 0 {
			return nil, fmt.Errorf("experiments: sigmoid utility needs k > 0, got %v", fj.K)
		}
		return utility.Sigmoid{K: fj.K}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown utility kind %q", fj.Kind)
	}
}

// Build constructs the app configuration.
func (aj AppJSON) Build() (trans.Config, error) {
	model, err := queueing.NewMG1PS(aj.DemandMHzs, res.CPU(aj.CoreSpeedMHz))
	if err != nil {
		return trans.Config{}, err
	}
	fn, err := aj.Fn.Build()
	if err != nil {
		return trans.Config{}, err
	}
	pattern, err := aj.Pattern.Build()
	if err != nil {
		return trans.Config{}, err
	}
	return trans.Config{
		ID:             trans.AppID(aj.ID),
		RTGoal:         aj.RTGoal,
		Model:          model,
		Fn:             fn,
		Pattern:        pattern,
		InstanceMem:    res.Memory(aj.InstanceMemMB),
		MaxPerInstance: res.CPU(aj.MaxPerInstance),
		MinInstances:   aj.MinInstances,
		MaxInstances:   aj.MaxInstances,
		NoiseCV:        aj.NoiseCV,
		EstimateLambda: aj.EstimateLambda,
		EWMAAlpha:      aj.EWMAAlpha,
	}, nil
}

// Build constructs the load pattern.
func (pj PatternJSON) Build() (trans.LoadPattern, error) {
	switch pj.Kind {
	case "", "constant":
		if pj.Rate < 0 {
			return nil, fmt.Errorf("experiments: negative constant rate %v", pj.Rate)
		}
		return trans.Constant{Rate: pj.Rate}, nil
	case "step":
		return trans.NewStep(pj.Times, pj.Rates)
	case "diurnal":
		if pj.Period <= 0 {
			return nil, fmt.Errorf("experiments: diurnal pattern needs period > 0")
		}
		return trans.Diurnal{Base: pj.Base, Amplitude: pj.Amplitude, Period: pj.Period, Phase: pj.Phase}, nil
	case "trace":
		return trans.NewTrace(pj.Times, pj.Rates)
	default:
		return nil, fmt.Errorf("experiments: unknown pattern kind %q", pj.Kind)
	}
}
