package core

import (
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
// a context with newPlanContext, run a prefix of the pipeline, and
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

	// arena, when non-nil, is the scratch this pass borrowed.
	arena *planArena

	// scratch is the phases' recycled working storage (node indexes and
	// selection buffers) — the arena's when planning through the
	// controller, lazily allocated for standalone contexts.
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
	sc := ctx.ensureScratch()
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

// ensureScratch returns the context's working storage, allocating a
// standalone one when the context is not arena-backed.
func (ctx *planContext) ensureScratch() *planScratch {
	if ctx.scratch == nil {
		ctx.scratch = &planScratch{}
	}
	return ctx.scratch
}

// newPlanContext opens a standalone planning pass: empty plan, freshly
// allocated books. The controller's Plan goes through the arena-backed
// planArena.context instead; this constructor serves phase-level tests
// and one-shot planning.
func newPlanContext(st *State) *planContext {
	return &planContext{
		st:        st,
		plan:      NewPlan(),
		ledgers:   NewLedgers(st.Nodes),
		appTarget: make(map[trans.AppID]res.CPU, len(st.Apps)),
	}
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

// PhaseNames lists the pipeline's stage names in order, for
// introspection and logging.
func (c *PlacementController) PhaseNames() []string {
	phases := c.Pipeline()
	names := make([]string, len(phases))
	for i, ph := range phases {
		names[i] = ph.Name
	}
	return names
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
	st, plan := ctx.st, ctx.plan
	if ctx.ledgers == nil {
		ctx.ledgers = NewLedgers(st.Nodes)
	}

	var curves []utility.Curve
	if a := ctx.arena; a != nil {
		ctx.appCurves = a.appCurves[:0]
		curves = a.curves[:0]
	}
	for i := range st.Apps {
		ctx.appCurves = append(ctx.appCurves, st.Apps[i].Curve())
	}
	curves = append(curves, ctx.appCurves...)
	if a := ctx.arena; a != nil {
		// Arena-backed pass: rebuild the job curves in the recycled slab
		// instead of allocating 10^5 fresh curves per cycle. Recycled
		// slots are overwritten wholesale (JobCurve.Fill) before use.
		a.jobCurveSlab = grow(a.jobCurveSlab, len(st.Jobs))
		slab := a.jobCurveSlab
		for i := range st.Jobs {
			st.Jobs[i].FillCurve(&slab[i], st.Now)
			curves = append(curves, &slab[i])
		}
	} else {
		for i := range st.Jobs {
			curves = append(curves, st.Jobs[i].Curve(st.Now))
		}
	}
	if a := ctx.arena; a != nil {
		a.appCurves = ctx.appCurves
		a.curves = curves
	}
	jobCurves := curves[len(st.Apps):]
	var eqScratch *utility.EqualizeScratch
	if a := ctx.arena; a != nil {
		eqScratch = &a.eqScratch
	}
	eq := utility.EqualizeWith(eqScratch, curves, st.TotalCPU())
	plan.EqualizedUtility = eq.Equalized

	if ctx.appTarget == nil {
		ctx.appTarget = make(map[trans.AppID]res.CPU, len(st.Apps))
	}
	for i := range st.Apps {
		ctx.appTarget[st.Apps[i].ID] = eq.Shares[i].Alloc
		plan.AppDemand[st.Apps[i].ID] = ctx.appCurves[i].MaxUseful()
	}

	// Planning records, with running jobs' residency on the books.
	// Recycled records hold an earlier pass's contents: each is assigned
	// a whole struct literal below before any field is read.
	var records []PlannedJob
	if a := ctx.arena; a != nil {
		a.records, a.planned = grow(a.records, len(st.Jobs)), grow(a.planned, len(st.Jobs))
		records, ctx.planned = a.records, a.planned
	} else {
		records = make([]PlannedJob, len(st.Jobs))
		ctx.planned = make([]*PlannedJob, len(st.Jobs))
	}
	var jobUtilSum float64
	classSum := map[string]float64{}
	classN := map[string]int{}
	for i := range st.Jobs {
		sh := eq.Shares[len(st.Apps)+i]
		jobUtilSum += sh.Utility
		classSum[st.Jobs[i].Class] += sh.Utility
		classN[st.Jobs[i].Class]++
		plan.JobDemand += jobCurves[i].MaxUseful()

		records[i] = PlannedJob{
			Info: st.Jobs[i], Target: sh.Alloc, idx: int32(i),
			lax: st.Jobs[i].Laxity(st.Now),
		}
		pj := &records[i]
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
			l.Occupy(pj.Info)
			pj.Node = pj.Info.Node
		}
	}
	if len(st.Jobs) > 0 {
		plan.HypotheticalJobUtility = jobUtilSum / float64(len(st.Jobs))
		plan.ClassHypoUtility = make(map[string]float64, len(classSum))
		for class, sum := range classSum {
			plan.ClassHypoUtility[class] = sum / float64(classN[class])
		}
	}
}
