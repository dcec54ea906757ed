package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"slaplace/api"
	"slaplace/internal/baseline"
	"slaplace/internal/chaos"
	"slaplace/internal/cluster"
	"slaplace/internal/control"
	"slaplace/internal/core"
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
	Costs        CostJSON `json:"costs"`

	Controller ControllerJSON `json:"controller"`

	CyclePeriod    float64 `json:"cyclePeriod"`
	FirstCycle     float64 `json:"firstCycle"`
	ActuationDelay float64 `json:"actuationDelay"`
	SamplePeriod   float64 `json:"samplePeriod"`

	Jobs   []JobStreamJSON `json:"jobs"`
	Apps   []AppJSON       `json:"apps"`
	Faults []FaultJSON     `json:"faults"`

	// Chaos, when present, arms the seeded fault-injection engine for
	// the run (internal/chaos).
	Chaos *ChaosJSON `json:"chaos"`
}

// CostJSON mirrors vm.Costs.
type CostJSON struct {
	StartLatency   float64 `json:"startLatency"`
	SuspendLatency float64 `json:"suspendLatency"`
	ResumeLatency  float64 `json:"resumeLatency"`
	MigrateMBps    float64 `json:"migrateMBps"`
	MigrateFloor   float64 `json:"migrateFloor"`
}

// ControllerJSON selects and tunes a controller by kind.
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
	Name         string      `json:"name"`
	WorkMHzs     float64     `json:"workMHzs"`
	MaxSpeedMHz  float64     `json:"maxSpeedMHz"`
	MemMB        int64       `json:"memMB"`
	GoalStretch  float64     `json:"goalStretch"`
	Fn           FnJSON      `json:"utility"`
	Phases       []PhaseJSON `json:"phases"`
	MaxJobs      int         `json:"maxJobs"`
	InitialBurst int         `json:"initialBurst"`
	IDPrefix     string      `json:"idPrefix"`
}

// PhaseJSON mirrors batch.Phase.
type PhaseJSON struct {
	Start            float64 `json:"start"`
	MeanInterarrival float64 `json:"meanInterarrival"`
	Disable          bool    `json:"disable"`
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

// FaultJSON mirrors NodeFault.
type FaultJSON struct {
	Node      string  `json:"node"`
	FailAt    float64 `json:"failAt"`
	RestoreAt float64 `json:"restoreAt"`
}

// ChaosJSON mirrors chaos.Config: a seed plus one block per fault
// family. A zero (or omitted) seed falls back to the scenario seed.
type ChaosJSON struct {
	Seed  uint64          `json:"seed"`
	Crash *ChaosCrashJSON `json:"crash"`
	Flap  *ChaosFlapJSON  `json:"flap"`
	Wave  *ChaosWaveJSON  `json:"wave"`
	Stale *ChaosStaleJSON `json:"stale"`
}

// ChaosCrashJSON mirrors chaos.Crash.
type ChaosCrashJSON struct {
	Every        int `json:"every"`
	Start        int `json:"start"`
	DetectionLag int `json:"detectionLag"`
	RestoreAfter int `json:"restoreAfter"`
}

// ChaosFlapJSON mirrors chaos.Flap.
type ChaosFlapJSON struct {
	Nodes  int `json:"nodes"`
	Period int `json:"period"`
	Start  int `json:"start"`
}

// ChaosWaveJSON mirrors chaos.Wave.
type ChaosWaveJSON struct {
	DepartAt int `json:"departAt"`
	Count    int `json:"count"`
	ReturnAt int `json:"returnAt"`
}

// ChaosStaleJSON mirrors chaos.Stale.
type ChaosStaleJSON struct {
	DuplicateEvery int `json:"duplicateEvery"`
	RegressEvery   int `json:"regressEvery"`
}

// Build converts and validates the chaos block.
func (chj ChaosJSON) Build() (chaos.Config, error) {
	cfg := chaos.Config{Seed: chj.Seed}
	if chj.Crash != nil {
		cfg.Crash = &chaos.Crash{
			Every:        chj.Crash.Every,
			Start:        chj.Crash.Start,
			DetectionLag: chj.Crash.DetectionLag,
			RestoreAfter: chj.Crash.RestoreAfter,
		}
	}
	if chj.Flap != nil {
		cfg.Flap = &chaos.Flap{
			Nodes:  chj.Flap.Nodes,
			Period: chj.Flap.Period,
			Start:  chj.Flap.Start,
		}
	}
	if chj.Wave != nil {
		cfg.Wave = &chaos.Wave{
			DepartAt: chj.Wave.DepartAt,
			Count:    chj.Wave.Count,
			ReturnAt: chj.Wave.ReturnAt,
		}
	}
	if chj.Stale != nil {
		cfg.Stale = &chaos.Stale{
			DuplicateEvery: chj.Stale.DuplicateEvery,
			RegressEvery:   chj.Stale.RegressEvery,
		}
	}
	if err := cfg.Validate(); err != nil {
		return chaos.Config{}, fmt.Errorf("experiments: chaos: %w", err)
	}
	return cfg, nil
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
	if sj.DefaultCosts {
		sc.Costs = vm.DefaultCosts()
	} else {
		sc.Costs = vm.Costs{
			StartLatency:   sj.Costs.StartLatency,
			SuspendLatency: sj.Costs.SuspendLatency,
			ResumeLatency:  sj.Costs.ResumeLatency,
			MigrateMBps:    sj.Costs.MigrateMBps,
			MigrateFloor:   sj.Costs.MigrateFloor,
		}
	}
	ctrl, err := sj.Controller.Build()
	if err != nil {
		return Scenario{}, err
	}
	sc.Controller = ctrl
	if sj.Controller.Forecast != nil {
		fc := sj.Controller.Forecast.Config()
		if err := fc.Validate(); err != nil {
			return Scenario{}, fmt.Errorf("experiments: forecast: %w", err)
		}
		sc.Forecast = &fc
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
			MaxJobs:      js.MaxJobs,
			InitialBurst: js.InitialBurst,
			IDPrefix:     js.IDPrefix,
		}
		for _, p := range js.Phases {
			stream.Phases = append(stream.Phases, batch.Phase{
				Start:             p.Start,
				MeanInterarrival:  p.MeanInterarrival,
				DisableSubmission: p.Disable,
			})
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
	for _, fj := range sj.Faults {
		sc.Faults = append(sc.Faults, NodeFault{
			Node:      cluster.NodeID(fj.Node),
			FailAt:    fj.FailAt,
			RestoreAt: fj.RestoreAt,
		})
	}
	if sj.Chaos != nil {
		cfg, err := sj.Chaos.Build()
		if err != nil {
			return Scenario{}, err
		}
		sc.Chaos = &cfg
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Build constructs the selected controller, wrapped in a sharded
// planner when Shards > 1.
func (cj ControllerJSON) Build() (core.Controller, error) {
	if cj.Shards < 0 {
		return nil, fmt.Errorf("experiments: negative controller shards %d", cj.Shards)
	}
	if cj.Shards > 1 {
		inner := cj
		inner.Shards = 0
		if _, err := inner.build(); err != nil {
			return nil, err // surface bad inner config eagerly, not per shard
		}
		return shard.New(shard.Config{
			Shards: cj.Shards,
			NewController: func() core.Controller {
				ctrl, err := inner.build()
				if err != nil {
					panic(err) // unreachable: validated above
				}
				return ctrl
			},
		}), nil
	}
	return cj.build()
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

// build constructs the selected controller kind, unsharded.
func (cj ControllerJSON) build() (core.Controller, error) {
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
		return core.New(cfg), nil
	case "fcfs", "edf", "fairshare":
		if err := cj.rejectUtilityKnobs(); err != nil {
			return nil, err
		}
		if cj.BatchFraction != 0 {
			return nil, fmt.Errorf("experiments: controller kind %q takes no batchFraction", cj.Kind)
		}
		switch cj.Kind {
		case "fcfs":
			return baseline.FCFS{}, nil
		case "edf":
			return baseline.EDF{}, nil
		}
		return baseline.FairShare{}, nil
	case "static":
		if err := cj.rejectUtilityKnobs(); err != nil {
			return nil, err
		}
		if cj.BatchFraction <= 0 || cj.BatchFraction >= 1 {
			return nil, fmt.Errorf("experiments: static controller needs batchFraction in (0,1), got %v", cj.BatchFraction)
		}
		return baseline.Static{BatchFraction: cj.BatchFraction}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown controller kind %q", cj.Kind)
	}
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
