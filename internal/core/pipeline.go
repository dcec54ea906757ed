package core

import (
	"math"
	"slices"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/utility"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// The placement controller is a staged pipeline. Each control cycle a
// planContext is threaded through the phases in order:
//
//	targets         demand prediction and hypothetical-utility
//	                equalization; opens the ledgers and seeds the
//	                residency of running jobs (state.go, utility pkg)
//	web-placement   instance presence and reserved web share per node
//	                (place_web.go)
//	job-placement   the job run-set: who runs where, who is suspended,
//	                who waits (place_jobs.go)
//	shares          per-node CPU division: waterfill over placed jobs,
//	                surplus back to the web tier (shares.go)
//	rebalance       bounded live migrations for starved running jobs
//	                (rebalance.go)
//	emit            translate the planning records into the action
//	                list and the recorder predictions (emit.go)
//
// Phases communicate only through the context — each reads what
// earlier phases wrote — which makes them individually testable: build
// a context over a fresh arena, run a prefix of the pipeline, and
// inspect the books.
//
// Plan itself is incremental across control cycles (incremental.go):
// when the cycle-over-cycle delta provably cannot change the discrete
// placement, the web-placement and job-placement phases are replaced by
// wholesale carry-over of the previous placement. The fallback — and
// the reference semantics — is always the full phase list below.

// Phase is one named stage of the placement pipeline.
type Phase struct {
	Name string
	Run  func(*planContext)
}

// planContext carries one planning pass's working state through the
// pipeline phases (configuration lives on the controller itself).
type planContext struct {
	st   *State
	plan *Plan

	ledgers *Ledgers
	planned []*PlannedJob
	// order is the job priority order the job-placement phase (full or
	// carry-over) used; the controller memoizes it for the next cycle.
	order []*PlannedJob

	// arena is the scratch this pass borrowed, and scratch its phases'
	// working storage (node indexes and selection buffers).
	arena   *planArena
	scratch *planScratch

	// Phase-1 products consumed downstream.
	appCurves []utility.Curve
	appTarget map[trans.AppID]res.CPU

	// instSorted: scratch.instNodes holds this pass's instance lists.
	instSorted bool
}

// instanceNodes is st.Apps[ai].InstanceNodes() for phases that only
// read the list: every app's list is built and sorted once per pass,
// into scratch.
func (ctx *planContext) instanceNodes(ai int) []cluster.NodeID {
	sc := ctx.scratch
	if !ctx.instSorted {
		ctx.instSorted = true
		sc.instNodes, sc.instAt = sc.instNodes[:0], append(sc.instAt[:0], 0)
		for i := range ctx.st.Apps {
			from := len(sc.instNodes)
			for n := range ctx.st.Apps[i].Instances {
				sc.instNodes = append(sc.instNodes, n)
			}
			slices.Sort(sc.instNodes[from:])
			sc.instAt = append(sc.instAt, len(sc.instNodes))
		}
	}
	return sc.instNodes[sc.instAt[ai]:sc.instAt[ai+1]:sc.instAt[ai+1]]
}

// sortedOrder fills ctx.order with the planning records in priority
// order (sortJobs), sorting in the arena's key buffers.
func (ctx *planContext) sortedOrder() []*PlannedJob {
	ctx.order = append(ctx.order[:0], ctx.planned...)
	sortJobs(ctx.order, &ctx.scratch.orderKeys, &ctx.scratch.orderTmp)
	return ctx.order
}

// Pipeline returns the controller's phases in execution order — the
// from-scratch reference semantics of Plan.
func (c *PlacementController) Pipeline() []Phase {
	return []Phase{
		{"targets", c.phaseTargets},
		{"web-placement", c.phaseWebPlacement},
		{"job-placement", c.phaseJobPlacement},
		{"shares", c.phaseShares},
		{"rebalance", c.phaseRebalance},
		{"emit", c.phaseEmit},
	}
}

// Plan implements Controller by running the pipeline with the
// incremental shortcuts of incremental.go: an unchanged snapshot
// replays the cached plan, a steady-state delta carries the previous
// placement over wholesale, and anything else runs every phase from
// scratch. All three tiers yield byte-identical plans; reuse only ever
// changes the cost, never the answer. Plan is safe for concurrent use,
// but shared controllers serialize on an internal lock — give each
// parallel scenario its own controller.
func (c *PlacementController) Plan(st *State) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()

	if c.cfg.Incremental {
		if plan := c.replayMemo(st); plan != nil {
			c.stats.Replayed++
			c.stats.LastMode = PlanReplayed
			// An identical snapshot is, by definition, zero drift.
			c.stats.LastDemandDelta = 0
			return plan
		}
	}

	a := acquireArena()
	defer a.release()
	ctx := c.context(st, a)
	c.phaseTargets(ctx)
	c.stats.LastDemandDelta = c.demandDelta(ctx)

	mode := PlanFull
	if c.cfg.Incremental && c.cfg.ChurnAware && c.webClean(ctx) {
		c.fastWebPlacement(ctx)
		if c.jobsSteady(ctx) {
			c.fastJobCarryOver(ctx)
			mode = PlanIncremental
		} else {
			// The web skeleton was clean (fastWebPlacement is exact),
			// but jobs may move: run the full job-placement phase.
			c.phaseJobPlacement(ctx)
		}
	} else {
		c.phaseWebPlacement(ctx)
		c.phaseJobPlacement(ctx)
	}
	c.phaseShares(ctx)
	c.phaseRebalance(ctx)
	c.phaseEmit(ctx)
	// The actions were emitted into the arena's buffer; the plan gets
	// one copy of exact length.
	acts := ctx.plan.Actions
	a.actions, ctx.plan.Actions = acts[:0], nil
	if len(acts) > 0 {
		ctx.plan.Actions = append(make([]Action, 0, len(acts)), acts...)
	}

	if mode == PlanIncremental {
		c.stats.Incremental++
	} else {
		c.stats.Full++
	}
	c.stats.LastMode = mode
	if c.cfg.Incremental {
		c.storeMemo(st, ctx)
	}
	a.order = ctx.order
	return ctx.plan
}

// PlanStats implements PlanStatsProvider.
func (c *PlacementController) PlanStats() PlanStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// phaseTargets builds the utility curves, equalizes hypothetical
// utility over the cluster's total CPU power (the continuous,
// placement-oblivious allocation of the paper's §2), records the
// demand/prediction series, and opens the planning records: one ledger
// per node with running jobs' residency seeded, one PlannedJob per
// incomplete job carrying its equalized target.
func (c *PlacementController) phaseTargets(ctx *planContext) {
	st, plan, a := ctx.st, ctx.plan, ctx.arena

	// The job curves are rebuilt in the recycled slab instead of
	// allocating 10^5 fresh curves per cycle. Recycled slots are
	// overwritten wholesale (JobCurve.Fill) before use.
	ctx.appCurves = a.appCurves[:0]
	for i := range st.Apps {
		ctx.appCurves = append(ctx.appCurves, st.Apps[i].Curve())
	}
	curves := append(a.curves[:0], ctx.appCurves...)
	a.jobCurveSlab = grow(a.jobCurveSlab, len(st.Jobs))
	slab := a.jobCurveSlab
	for i := range st.Jobs {
		st.Jobs[i].FillCurve(&slab[i], st.Now)
		curves = append(curves, &slab[i])
	}
	a.appCurves, a.curves = ctx.appCurves, curves
	eq := utility.EqualizeWith(&a.eqScratch, curves, st.TotalCPU(), c.level)
	if !math.IsNaN(eq.Level) {
		c.level = eq.Level
	}
	plan.EqualizedUtility = eq.Equalized

	for i := range st.Apps {
		ctx.appTarget[st.Apps[i].ID] = eq.Shares[i].Alloc
		plan.AppDemand[st.Apps[i].ID] = ctx.appCurves[i].MaxUseful()
	}

	// Planning records, with running jobs' residency on the books.
	// Recycled records hold an earlier pass's contents: each is assigned
	// a whole struct literal below before any field is read.
	a.records, a.planned = grow(a.records, len(st.Jobs)), grow(a.planned, len(st.Jobs))
	records := a.records
	ctx.planned = a.planned
	var jobUtilSum float64
	// Per-class utility sums, each in job order; classes are few, so a
	// linear scan finds a job's.
	classes := ctx.scratch.classes[:0]
	for i := range st.Jobs {
		sh := eq.Shares[len(st.Apps)+i]
		jobUtilSum += sh.Utility
		class := st.Jobs[i].Class
		k := slices.IndexFunc(classes, func(c classSum) bool { return c.class == class })
		if k < 0 {
			k, classes = len(classes), append(classes, classSum{class: class})
		}
		classes[k].sum += sh.Utility
		classes[k].n++
		plan.JobDemand += slab[i].MaxUseful()

		pj := &records[i]
		*pj = PlannedJob{Target: sh.Alloc, idx: int32(i)}
		pj.Info = st.Jobs[i]
		pj.lax = pj.Info.Laxity(st.Now)
		ctx.planned[i] = pj
		if pj.Info.State == batch.Running {
			l, ok := ctx.ledgers.Get(pj.Info.Node)
			if !ok {
				// The hosting node vanished from the snapshot (offline
				// or failed). Recovery is the eviction path's job — the
				// vm manager suspends residents and the next snapshot
				// shows the job Suspended. Until then leave it alone.
				pj.Waiting = true
				continue
			}
			l.Occupy(pj.Info.Mem)
			pj.Node = pj.Info.Node
		}
	}
	if len(st.Jobs) > 0 {
		plan.HypotheticalJobUtility = jobUtilSum / float64(len(st.Jobs))
		plan.ClassHypoUtility = make(map[string]float64, len(classes))
		for _, c := range classes {
			plan.ClassHypoUtility[c.class] = c.sum / float64(c.n)
		}
	}
	ctx.scratch.classes = classes
}

// classSum is one job class's hypothetical utility sum and job count.
type classSum struct {
	class string
	sum   float64
	n     int
}
