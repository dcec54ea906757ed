package core

import (
	"math"
	"reflect"
	"slices"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// Incremental re-planning.
//
// The paper's control loop re-solves placement every cycle, but its
// algorithm is deliberately incremental: it starts from the current
// placement and minimizes churn. This file exploits that structure so
// steady-state cycles cost O(apps + jobs + nodes) instead of the full
// placement scan, while the produced Plan stays byte-identical to the
// from-scratch planner — equivalence is *proved* cheaply per cycle and
// the controller falls back to the full pipeline whenever the proof
// fails.
//
// Three reuse tiers, checked in order:
//
//	replay       the snapshot is exactly the previous one (controllers
//	             must be deterministic, so the cached plan IS the
//	             answer); common when a caller re-plans without any
//	             state drift.
//	carry-over   the demand delta moved the continuous targets but the
//	             discrete skeleton provably cannot change: every web
//	             application keeps exactly its current instances
//	             (webClean) and no pending/suspended job could be
//	             placed on any node or behind any single eviction
//	             (jobsSteady). Then web-placement and job-placement
//	             degenerate to carrying the previous placement over
//	             wholesale; only targets, shares, rebalance and emit
//	             run. The cached priority order is revalidated in O(n)
//	             instead of re-sorting.
//	full         anything else: the normal from-scratch pipeline.
//
// Soundness of carry-over: with ChurnAware set, the from-scratch
// job-placement phase keeps every running job in place and the ledger
// memory state is then static through the whole phase when no job can
// be placed (jobsSteady checks exactly that, conservatively covering
// the eviction path by memory feasibility alone, which subsumes the
// urgency test). Likewise webClean implies the from-scratch
// web-placement phase would keep exactly the current instance set and
// emit no Add/Remove actions. Everything downstream (shares, rebalance,
// emit, diagnostics) is recomputed fresh from the same books, so the
// bytes cannot differ.

// PlanMode says how a plan was produced.
type PlanMode int

// Plan production modes, in increasing order of reuse.
const (
	// PlanFull is a from-scratch run of every pipeline phase.
	PlanFull PlanMode = iota
	// PlanIncremental carried the previous placement over wholesale and
	// re-ran only the targets, shares, rebalance and emit phases.
	PlanIncremental
	// PlanReplayed returned a copy of the cached plan for a snapshot
	// identical to the previous one.
	PlanReplayed
)

// String renders the mode for logs and series labels.
func (m PlanMode) String() string {
	switch m {
	case PlanFull:
		return "full"
	case PlanIncremental:
		return "incremental"
	case PlanReplayed:
		return "replayed"
	default:
		return "unknown"
	}
}

// PlanStats reports how the controller's plans have been produced and
// the demand drift the latest cycle observed.
type PlanStats struct {
	// Full, Incremental and Replayed count plans per PlanMode.
	Full, Incremental, Replayed int
	// LastMode is the mode of the most recent plan.
	LastMode PlanMode
	// LastDemandDelta is the aggregate CPU-demand drift the targets
	// phase measured against the previous cycle: Σ per application
	// |ΔAppDemand| plus |ΔJobDemand|. Zero when there was no previous
	// cycle to compare against.
	LastDemandDelta res.CPU
}

// PlanStatsProvider is implemented by controllers that can report plan
// reuse statistics; the control loop records them as series.
type PlanStatsProvider interface {
	PlanStats() PlanStats
}

// planMemo caches the previous control cycle: the exact snapshot it
// planned, the plan it produced, and the job priority order it used.
type planMemo struct {
	valid bool
	now   float64
	nodes []NodeInfo
	jobs  []JobInfo
	apps  []AppInfo // Instances maps are memo-owned deep copies
	plan  *Plan
	order []int32 // job priority order as indices into jobs
}

// storeMemo snapshots the finished pass. The state is deep-copied into
// memo-owned buffers: callers may mutate their State between cycles.
func (c *PlacementController) storeMemo(st *State, ctx *planContext) {
	m := c.memo
	if m == nil {
		m = &planMemo{}
		c.memo = m
	}
	m.now = st.Now
	m.nodes = append(m.nodes[:0], st.Nodes...)
	m.jobs = append(m.jobs[:0], st.Jobs...)
	m.apps = m.apps[:0]
	for i := range st.Apps {
		a := st.Apps[i]
		inst := make(map[cluster.NodeID]res.CPU, len(a.Instances))
		for n, s := range a.Instances {
			inst[n] = s
		}
		a.Instances = inst
		m.apps = append(m.apps, a)
	}
	m.plan = clonePlan(ctx.plan)
	m.order = m.order[:0]
	for _, pj := range ctx.order {
		m.order = append(m.order, pj.idx)
	}
	m.valid = true
}

// replayMemo returns a copy of the cached plan when the snapshot is
// identical to the previous one, nil otherwise. Determinism makes this
// sound: identical states must yield identical plans.
func (c *PlacementController) replayMemo(st *State) *Plan {
	m := c.memo
	if m == nil || !m.valid || st.Now != m.now {
		return nil
	}
	if !nodeInfosEqual(m.nodes, st.Nodes) {
		return nil
	}
	if len(st.Jobs) != len(m.jobs) || len(st.Apps) != len(m.apps) {
		return nil
	}
	for i := range st.Jobs {
		if !jobInfoEqual(&st.Jobs[i], &m.jobs[i]) {
			return nil
		}
	}
	for i := range st.Apps {
		if !appInfoEqual(&st.Apps[i], &m.apps[i]) {
			return nil
		}
	}
	return clonePlan(m.plan)
}

// jobInfoEqual compares every field that can influence a plan.
func jobInfoEqual(a, b *JobInfo) bool {
	return a.ID == b.ID && a.Class == b.Class && a.State == b.State &&
		a.Node == b.Node && a.Share == b.Share && a.Migrating == b.Migrating &&
		a.Remaining == b.Remaining && a.MaxSpeed == b.MaxSpeed &&
		a.Mem == b.Mem && a.Goal == b.Goal && a.Submitted == b.Submitted &&
		ifaceEqual(a.Fn, b.Fn)
}

// appInfoEqual compares every field that can influence a plan.
func appInfoEqual(a, b *AppInfo) bool {
	if a.ID != b.ID || a.Lambda != b.Lambda || a.RTGoal != b.RTGoal ||
		a.InstanceMem != b.InstanceMem || a.MaxPerInstance != b.MaxPerInstance ||
		a.MinInstances != b.MinInstances || a.MaxInstances != b.MaxInstances ||
		a.MeasuredRT != b.MeasuredRT ||
		!ifaceEqual(a.Model, b.Model) || !ifaceEqual(a.Fn, b.Fn) {
		return false
	}
	if len(a.Instances) != len(b.Instances) {
		return false
	}
	for n, s := range a.Instances {
		if bs, ok := b.Instances[n]; !ok || bs != s {
			return false
		}
	}
	return true
}

// ifaceEqual compares two interface values without panicking on
// uncomparable dynamic types (those simply compare unequal, forcing the
// conservative path).
func ifaceEqual(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ta, tb := reflect.TypeOf(a), reflect.TypeOf(b)
	if ta != tb || !ta.Comparable() {
		return false
	}
	return a == b
}

// clonePlan deep-copies a plan so cached and returned plans never share
// mutable structure with each other or with the planning pass.
func clonePlan(p *Plan) *Plan {
	cp := *p
	cp.Actions = append([]Action(nil), p.Actions...)
	cp.ClassHypoUtility = cloneFloatMap(p.ClassHypoUtility)
	cp.AppPrediction = cloneFloatMap(p.AppPrediction)
	cp.AppDemand = cloneCPUMap(p.AppDemand)
	cp.AppTarget = cloneCPUMap(p.AppTarget)
	return &cp
}

func cloneFloatMap[K comparable](m map[K]float64) map[K]float64 {
	if m == nil {
		return nil
	}
	out := make(map[K]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func cloneCPUMap[K comparable](m map[K]res.CPU) map[K]res.CPU {
	if m == nil {
		return nil
	}
	out := make(map[K]res.CPU, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// demandDelta measures, deterministically (state order, not map order),
// the aggregate CPU-demand drift between this pass and the memoized
// previous cycle — the per-application demand delta the incremental
// design steers by. Returns 0 when there is no previous cycle.
func (c *PlacementController) demandDelta(ctx *planContext) res.CPU {
	m := c.memo
	if m == nil || !m.valid || m.plan == nil {
		return 0
	}
	var d res.CPU
	seen := 0
	for i := range ctx.st.Apps {
		id := ctx.st.Apps[i].ID
		prev, ok := m.plan.AppDemand[id]
		if ok {
			seen++
		}
		d += res.CPU(math.Abs(float64(ctx.plan.AppDemand[id] - prev)))
	}
	if seen != len(m.plan.AppDemand) {
		// Applications disappeared; count their whole demand as drift.
		for i := range m.apps {
			id := m.apps[i].ID
			if _, ok := ctx.plan.AppDemand[id]; !ok {
				d += res.CPU(math.Abs(float64(m.plan.AppDemand[id])))
			}
		}
	}
	d += res.CPU(math.Abs(float64(ctx.plan.JobDemand - m.plan.JobDemand)))
	return d
}

// webClean reports whether the web-placement phase would provably keep
// exactly the current instance set for every application: each app's
// needed-instance count equals its live instance count and no instance
// sits on an unknown node. Then the phase emits no Add/Remove actions
// and its memory/share bookkeeping reduces to fastWebPlacement.
func (c *PlacementController) webClean(ctx *planContext) bool {
	st := ctx.st
	nodeCount := len(ctx.ledgers.Order())
	for ai := range st.Apps {
		app := &st.Apps[ai]
		live := 0
		for n := range app.Instances {
			if _, ok := ctx.ledgers.Get(n); !ok {
				return false
			}
			live++
		}
		if neededInstances(app, ctx.appTarget[app.ID], nodeCount) != live {
			return false
		}
	}
	return true
}

// fastWebPlacement replays the web-placement phase for a webClean pass:
// every application keeps exactly its current instances, so only the
// memory accounting and the share division run. Byte-identical to
// phaseWebPlacement under the webClean precondition.
func (c *PlacementController) fastWebPlacement(ctx *planContext) {
	st, plan, ledgers := ctx.st, ctx.plan, ctx.ledgers
	for ai := range st.Apps {
		app := &st.Apps[ai]
		kept := app.InstanceNodes()
		if len(kept) == 0 {
			plan.AppTarget[app.ID] = 0
			continue
		}
		for _, n := range kept {
			l, _ := ledgers.Get(n)
			l.BookMem(app.InstanceMem)
		}
		per := res.Min(ctx.appTarget[app.ID]/res.CPU(len(kept)), app.MaxPerInstance)
		for _, n := range kept {
			l, _ := ledgers.Get(n)
			share := res.Min(per, l.Info.CPU)
			l.WebShare += share
			l.WebApps[app.ID] += share
		}
	}
}

// jobsSteady reports whether the job-placement phase would provably
// change nothing: every pending or suspended job can neither fit on any
// node as booked nor fit behind any single eviction. Memory feasibility
// subsumes the eviction urgency test, so this is conservative: any
// doubt forces the full phase. Must run after web memory is booked
// (the ledgers are then static through the whole phase).
func (c *PlacementController) jobsSteady(ctx *planContext) bool {
	// Largest plannable free memory on any node.
	maxFree := res.Memory(-1)
	ctx.ledgers.Each(func(l *Ledger) {
		if f := l.FreeMem(); f > maxFree {
			maxFree = f
		}
	})
	// Largest memory a single eviction could make available: the
	// victim's node free memory plus the victim's own footprint, over
	// every evictable running job.
	maxFreeable := res.Memory(-1)
	for _, pj := range ctx.planned {
		if pj.Info.State != batch.Running || pj.Waiting {
			continue
		}
		l, ok := ctx.ledgers.Get(pj.Node)
		if !ok {
			continue
		}
		if f := l.FreeMem() + pj.Info.Mem; f > maxFreeable {
			maxFreeable = f
		}
	}
	for _, pj := range ctx.planned {
		if pj.Waiting || pj.Info.State == batch.Running {
			continue
		}
		if pj.Info.Mem <= maxFree || pj.Info.Mem <= maxFreeable {
			return false
		}
	}
	return true
}

// fastJobCarryOver replays the job-placement phase for a jobsSteady
// pass: running jobs stay put (ledger append follows the priority order
// so downstream float accumulation is bit-identical to the full phase)
// and everything else keeps waiting.
func (c *PlacementController) fastJobCarryOver(ctx *planContext) {
	for _, pj := range c.orderedPlanned(ctx) {
		switch {
		case pj.Waiting:
			// Stranded on a vanished node; eviction recovery's job.
		case pj.Info.State == batch.Running:
			l, _ := ctx.ledgers.Get(pj.Node)
			l.AppendJob(pj)
		default:
			pj.Waiting = true
		}
	}
}

// orderedPlanned fills ctx.order with the planning records in priority
// order. When the memoized previous order still verifies as strictly
// sorted under the current laxities — the common steady-state case —
// the O(n log n) sort collapses to an O(n) check; the comparator is a
// total order (ID tie-break), so a verified order is THE sorted order.
func (c *PlacementController) orderedPlanned(ctx *planContext) []*PlannedJob {
	n := len(ctx.planned)
	if m := c.memo; m != nil && m.valid && len(m.order) == n && n > 0 {
		ctx.order = ctx.order[:0]
		ok := true
		for _, ix := range m.order {
			if int(ix) < 0 || int(ix) >= n {
				ok = false
				break
			}
			ctx.order = append(ctx.order, ctx.planned[ix])
		}
		for i := 0; ok && i+1 < n; i++ {
			// Strictness also rejects any non-permutation: a repeated
			// index ties with itself and fails.
			if !jobLess(ctx.order[i], ctx.order[i+1]) {
				ok = false
			}
		}
		if ok {
			return ctx.order
		}
	}
	ctx.order = append(ctx.order[:0], ctx.planned...)
	slices.SortFunc(ctx.order, jobCmp)
	return ctx.order
}

// neededInstances computes the web-placement phase's desired instance
// count for an application at the given equalized target. Shared by the
// full phase and the webClean check so the formula cannot drift.
func neededInstances(app *AppInfo, target res.CPU, nodeCount int) int {
	needed := 0
	if app.MaxPerInstance > 0 {
		needed = int(math.Ceil(float64(target) / float64(app.MaxPerInstance)))
	}
	if needed < app.MinInstances {
		needed = app.MinInstances
	}
	if needed < 1 && target > 0 {
		needed = 1
	}
	if app.MaxInstances > 0 && needed > app.MaxInstances {
		needed = app.MaxInstances
	}
	if needed > nodeCount {
		needed = nodeCount
	}
	return needed
}
