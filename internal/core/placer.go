package core

import (
	"fmt"
	"math"
	"sync"
)

// Config tunes the placement controller. The zero value is NOT valid;
// use DefaultConfig as the base.
type Config struct {
	// ShareTolerance suppresses share-change actions smaller than this
	// fraction of the workload's speed cap, damping oscillation.
	ShareTolerance float64
	// MigrationThreshold: a running job achieving less than this
	// fraction of its target share on its current node is considered
	// for migration to a better node.
	MigrationThreshold float64
	// MigrationGain: a migration must improve the job's share by at
	// least this factor to be worth the copy cost.
	MigrationGain float64
	// MaxMigrationsPerCycle bounds migration churn per control cycle.
	MaxMigrationsPerCycle int
	// EvictionMargin is suspension hysteresis in seconds of laxity: a
	// running job is only suspended for a waiting one when the waiting
	// job is at least this much more urgent. Zero reproduces the
	// paper's pure policy; larger values trade equalization granularity
	// for fewer suspend/resume cycles.
	EvictionMargin float64
	// ChurnAware keeps running jobs where they are when possible. The
	// ablation benchmark sets it false: every cycle places from
	// scratch, exposing the cost of ignoring placement inertia.
	ChurnAware bool
	// Incremental enables cycle-over-cycle plan reuse (incremental.go):
	// the controller memoizes the previous snapshot, plan and priority
	// order, replays the plan for identical snapshots, and carries the
	// placement over wholesale when the delta provably cannot change
	// it. Plans are byte-identical with it on or off — only the
	// planning cost changes. False runs every cycle from scratch (the
	// reference semantics, used by equivalence tests and benchmarks).
	Incremental bool
}

// DefaultConfig returns the configuration used in the paper-scenario
// experiments.
func DefaultConfig() Config {
	return Config{
		ShareTolerance:        0.02,
		MigrationThreshold:    0.5,
		MigrationGain:         1.5,
		MaxMigrationsPerCycle: 5,
		ChurnAware:            true,
		Incremental:           true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ShareTolerance < 0 || c.ShareTolerance > 1 {
		return fmt.Errorf("core: ShareTolerance %v outside [0,1]", c.ShareTolerance)
	}
	if c.MigrationThreshold < 0 || c.MigrationThreshold > 1 {
		return fmt.Errorf("core: MigrationThreshold %v outside [0,1]", c.MigrationThreshold)
	}
	if c.MigrationGain < 1 {
		return fmt.Errorf("core: MigrationGain %v < 1", c.MigrationGain)
	}
	if c.MaxMigrationsPerCycle < 0 {
		return fmt.Errorf("core: negative MaxMigrationsPerCycle %d", c.MaxMigrationsPerCycle)
	}
	if c.EvictionMargin < 0 {
		return fmt.Errorf("core: negative EvictionMargin %v", c.EvictionMargin)
	}
	return nil
}

// PlacementController is the paper's utility-driven placement
// controller, implemented as the staged pipeline in pipeline.go with
// the incremental re-planning tiers of incremental.go. It carries
// per-cycle state (the node ledgers and the previous-cycle memo), so
// concurrent Plan calls serialize on an internal lock; parallel
// scenario runs should each own a controller. Plan scratch is not
// per-controller state: each plan borrows it (arena.go).
type PlacementController struct {
	mu       sync.Mutex
	cfg      Config
	ledgers  *Ledgers   // the books for nodesSig, the node list they were built for
	nodesSig []NodeInfo // a planned State's own Nodes, not a copy
	memo     *planMemo
	stats    PlanStats
	// level hints the next plan's equalizer: the last first-round level
	// (NaN before any). It is never in plan scratch, checkpoints or wire.
	level float64
}

var _ Controller = (*PlacementController)(nil)
var _ PlanStatsProvider = (*PlacementController)(nil)

// New builds a controller, panicking on invalid configuration (it is a
// programming error, caught in tests).
func New(cfg Config) *PlacementController {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &PlacementController{cfg: cfg, level: math.NaN()}
}

// Name implements Controller.
func (c *PlacementController) Name() string { return "utility-placement" }
