package shard

import (
	"fmt"
	"sync"

	"slaplace/api"
	"slaplace/internal/core"
	"slaplace/internal/res"
)

// Config tunes a sharded controller.
type Config struct {
	// Shards is the partition count K. Values below 1 plan as one
	// shard; the partitioner additionally never creates more shards
	// than the snapshot has nodes.
	Shards int
	// NewController builds one per-shard planner. nil means the
	// paper's placement controller with the default configuration.
	// Controllers are created once and live across cycles, so a
	// stateful planner keeps its node ledgers and incremental reuse
	// tiers per shard. Plan scratch is not per shard: K shards planning
	// at once borrow K arenas from core's free list, whose size is the
	// peak number of plans in flight.
	NewController func() core.Controller
}

// Diagnostics describes the most recent partition of a sharded
// controller.
type Diagnostics struct {
	// ConfiguredShards is Config.Shards; EffectiveShards is the count
	// the last snapshot actually supported (never above its node
	// count, and 1 before the first plan).
	ConfiguredShards int
	EffectiveShards  int
	// LoadSpread is the last partition's max/min shard demand ratio
	// (1 when unsharded or perfectly balanced).
	LoadSpread float64
	// Reshards counts boundary migrations — cycles whose partition
	// moved node blocks between shards at an unchanged effective K —
	// since the controller was created. LastResharded reports whether
	// the most recent cycle was one.
	Reshards      int
	LastResharded bool
}

// Controller plans a cluster as Config.Shards independent partitions
// and merges the per-shard plans. It implements core.Controller; with
// Shards <= 1 every call delegates straight to the single inner
// controller and is byte-identical to not sharding at all.
//
// Plans are deterministic: the partition is deterministic, each shard
// is planned by a deterministic controller, and the merge visits
// shards in index order. Shards are planned concurrently; Plan is safe
// for concurrent use but serializes on an internal lock like the
// controllers it wraps.
type Controller struct {
	cfg Config

	mu      sync.Mutex
	inner   []core.Controller
	scratch partitionScratch
	// lastK is the shard count of the most recent Plan (the snapshot
	// may support fewer shards than configured); per-cycle stats
	// aggregate over exactly those controllers.
	lastK int
	// lastSpread / lastResharded mirror the most recent partition's
	// diagnostics (Diagnostics()).
	lastSpread    float64
	lastResharded bool
}

var _ core.Controller = (*Controller)(nil)
var _ core.PlanStatsProvider = (*Controller)(nil)

// New builds a sharded controller. The partition count is capped at
// the wire protocol's api.MaxShards: an unbounded count would let one
// bad config allocate that many controllers.
func New(cfg Config) *Controller {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > api.MaxShards {
		cfg.Shards = api.MaxShards
	}
	if cfg.NewController == nil {
		cfg.NewController = func() core.Controller { return core.New(core.DefaultConfig()) }
	}
	return &Controller{cfg: cfg}
}

// Wrap builds a session's controller from its shard count: newCtrl()
// itself for k <= 1, a k-shard controller over newCtrl otherwise.
func Wrap(k int, newCtrl func() core.Controller) core.Controller {
	if k <= 1 {
		return newCtrl()
	}
	return New(Config{Shards: k, NewController: newCtrl})
}

// Name implements core.Controller.
func (c *Controller) Name() string {
	if c.cfg.Shards <= 1 {
		return c.controller(0).Name()
	}
	return fmt.Sprintf("sharded%d(%s)", c.cfg.Shards, c.controller(0).Name())
}

// Shards returns the configured partition count.
func (c *Controller) Shards() int { return c.cfg.Shards }

// controller returns the i-th per-shard controller, creating inner
// controllers up to index i on first use.
func (c *Controller) controller(i int) core.Controller {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.inner) <= i {
		c.inner = append(c.inner, c.cfg.NewController())
	}
	return c.inner[i]
}

// Plan implements core.Controller: partition, plan each shard
// concurrently, merge freeing-first.
func (c *Controller) Plan(st *core.State) *core.Plan {
	if c.cfg.Shards <= 1 {
		plan := c.controller(0).Plan(st)
		c.mu.Lock()
		c.lastK = 1
		c.lastSpread = 1
		c.lastResharded = false
		c.mu.Unlock()
		return plan
	}
	// Materialize only the controllers this snapshot can use: the
	// partitioner never creates more shards than there are nodes, and
	// an idle controller must not exist (PlanStats aggregates every
	// materialized controller).
	c.controller(effectiveShards(c.cfg.Shards, len(st.Nodes)) - 1)

	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.scratch.split(st, c.cfg.Shards)
	k := len(p.states)

	// Shards plan concurrently, each into its own slot.
	plans := make([]*core.Plan, k)
	runChunks(k, func(i int) { plans[i] = c.inner[i].Plan(p.states[i]) })

	c.lastK = k
	c.lastSpread = p.spread
	c.lastResharded = p.resharded
	return mergePlans(p, plans)
}

// ExportBounds returns the partitioner's persistent state for a
// checkpoint: the current shard boundaries (shard i owns node indexes
// [bounds[i], bounds[i+1]) of the snapshot's node list) and the
// reshard counter. Nil bounds before the first K>1 plan.
func (c *Controller) ExportBounds() (bounds []int, reshards int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.scratch.bounds...), c.scratch.reshards
}

// RestoreBounds stages checkpointed partitioner state onto a fresh
// controller, before its first Plan: the next split adopts the bounds
// verbatim (so replaying the checkpointed snapshot reproduces the
// pre-checkpoint partition exactly, with no spurious reshard), and the
// reshard counter continues where it left off. Bounds that do not fit
// the first snapshot are discarded in favor of a fresh computation.
func (c *Controller) RestoreBounds(bounds []int, reshards int) error {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return fmt.Errorf("shard: restored bounds not monotonic at %d", i)
		}
	}
	if len(bounds) > 0 && bounds[0] != 0 {
		return fmt.Errorf("shard: restored bounds start at %d, want 0", bounds[0])
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(bounds) > 0 {
		c.scratch.pendingBounds = append([]int(nil), bounds...)
	}
	c.scratch.reshards = reshards
	return nil
}

// Diagnostics returns the most recent partition's shape: effective
// shard count, demand-load spread, and the reshard history. Before the
// first plan (or with Shards <= 1) it reports one effective shard and
// a spread of 1.
func (c *Controller) Diagnostics() Diagnostics {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := Diagnostics{
		ConfiguredShards: c.cfg.Shards,
		EffectiveShards:  c.lastK,
		LoadSpread:       c.lastSpread,
		Reshards:         c.scratch.reshards,
		LastResharded:    c.lastResharded,
	}
	if d.EffectiveShards < 1 {
		d.EffectiveShards = 1
	}
	if d.LoadSpread == 0 {
		d.LoadSpread = 1
	}
	return d
}

// PlanStats implements core.PlanStatsProvider by aggregating every
// inner controller that reports stats: the cumulative counters sum
// over every controller that has ever planned, while the per-cycle
// fields (LastMode, LastDemandDelta) cover only the most recent
// cycle's shards — LastMode is their least-reused mode (one shard
// planning from scratch makes the whole cycle a from-scratch cycle).
// Wrapping controllers that do not report stats yields zeros.
func (c *Controller) PlanStats() core.PlanStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var agg core.PlanStats
	first := true
	for i, ctrl := range c.inner {
		sp, ok := ctrl.(core.PlanStatsProvider)
		if !ok {
			continue
		}
		s := sp.PlanStats()
		agg.Full += s.Full
		agg.Incremental += s.Incremental
		agg.Replayed += s.Replayed
		if i >= c.lastK {
			continue // idle this cycle (the node count shrank)
		}
		agg.LastDemandDelta += s.LastDemandDelta
		if first || s.LastMode < agg.LastMode {
			agg.LastMode = s.LastMode
		}
		first = false
	}
	return agg
}

// mergePlans combines the per-shard plans into one plan. Actions are
// ordered freeing-first globally: first the partitioner's reconcile
// removals, then every shard's freeing actions (core.Action.Frees:
// suspends and instance removals) in shard order, then everything else in shard
// order — so an executor enacting the merged list frees memory across
// the whole cluster before any placement needs it. Within a shard,
// each group keeps the shard plan's own emission order.
//
// Diagnostics merge by their meaning: demands and targets sum, the
// per-app maps union (each app lives in exactly one shard), and the
// job-utility means recombine weighted by shard job counts. The merged
// EqualizedUtility is the capacity-weighted mean of the shard levels —
// always inside [min, max] of the per-shard levels.
func mergePlans(p *partition, plans []*core.Plan) *core.Plan {
	out := core.NewPlan()
	total := 0
	for _, sp := range plans {
		total += len(sp.Actions)
	}
	out.Actions = make([]core.Action, 0, total+len(p.reconcile))
	out.Actions = append(out.Actions, p.reconcile...)
	for _, frees := range []bool{true, false} {
		for _, sp := range plans {
			for _, a := range sp.Actions {
				if a.Frees() == frees {
					out.Actions = append(out.Actions, a)
				}
			}
		}
	}

	var jobs int
	var jobUtil float64
	var capSum, eqWeighted res.CPU
	classSum := map[string]float64{}
	classN := map[string]int{}
	for i, sp := range plans {
		n := p.jobCount[i]
		jobs += n
		jobUtil += sp.HypotheticalJobUtility * float64(n)
		for class, u := range sp.ClassHypoUtility {
			cn := p.classCount[i][class]
			classSum[class] += u * float64(cn)
			classN[class] += cn
		}
		shardCap := p.states[i].TotalCPU()
		capSum += shardCap
		eqWeighted += shardCap * res.CPU(sp.EqualizedUtility)
		out.JobDemand += sp.JobDemand
		out.JobTarget += sp.JobTarget
		for id, v := range sp.AppPrediction {
			out.AppPrediction[id] = v
		}
		for id, v := range sp.AppDemand {
			out.AppDemand[id] = v
		}
		for id, v := range sp.AppTarget {
			out.AppTarget[id] = v
		}
	}
	if jobs > 0 {
		out.HypotheticalJobUtility = jobUtil / float64(jobs)
		out.ClassHypoUtility = make(map[string]float64, len(classSum))
		for class, sum := range classSum {
			out.ClassHypoUtility[class] = sum / float64(classN[class])
		}
	}
	if capSum > 0 {
		out.EqualizedUtility = float64(eqWeighted / capSum)
	}
	return out
}
