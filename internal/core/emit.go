package core

import (
	"math"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// phaseEmit settles the final accounting and translates the planning
// records into the action list: per-app web allocation totals, web
// share-change actions, job actions, and the recorder predictions.
func (c *PlacementController) phaseEmit(ctx *planContext) {
	st, plan := ctx.st, ctx.plan

	// Final web share accounting per app.
	ctx.ledgers.Each(func(l *Ledger) {
		for id, s := range l.WebApps {
			plan.AppTarget[id] += s
		}
	})
	c.emitWebShares(ctx)
	c.emitJobActions(plan, ctx.planned)

	// Predictions for the recorder.
	for i := range st.Apps {
		id := st.Apps[i].ID
		plan.AppPrediction[id] = ctx.appCurves[i].UtilityAt(plan.AppTarget[id])
	}
	for _, pj := range ctx.planned {
		plan.JobTarget += pj.Share
	}
}

// emitWebShares emits SetInstanceShare for kept instances whose planned
// share moved beyond tolerance, and sets shares on newly added ones by
// rewriting their AddInstance actions. Planned shares are read off the
// ledgers (node -> app -> share); an instance whose node or app entry
// is missing was removed this cycle.
func (c *PlacementController) emitWebShares(ctx *planContext) {
	st, plan := ctx.st, ctx.plan
	plannedShare := func(app trans.AppID, node cluster.NodeID) (res.CPU, bool) {
		l, ok := ctx.ledgers.Get(node)
		if !ok {
			return 0, false
		}
		s, ok := l.WebApps[app]
		return s, ok
	}
	// Rewrite AddInstance actions with final shares.
	for i, a := range plan.Actions {
		if add, ok := a.(AddInstance); ok {
			add.Share, _ = plannedShare(add.App, add.Node)
			plan.Actions[i] = add
		}
	}
	// Share changes for kept instances.
	for ai := range st.Apps {
		app := &st.Apps[ai]
		nodes := ctx.instanceNodes(ai)
		for _, n := range nodes {
			target, ok := plannedShare(app.ID, n)
			if !ok {
				continue // removed this cycle
			}
			cur := app.Instances[n]
			tol := res.CPU(c.cfg.ShareTolerance) * app.MaxPerInstance
			if res.CPU(math.Abs(float64(target-cur))) > tol {
				plan.Actions = append(plan.Actions, SetInstanceShare{App: app.ID, Node: n, Share: target})
			}
		}
	}
}

// emitJobActions translates planning records into the action list.
func (c *PlacementController) emitJobActions(plan *Plan, planned []*PlannedJob) {
	// Suspends first: the executor frees memory before filling it.
	for _, pj := range planned {
		if pj.Suspend {
			plan.Actions = append(plan.Actions, SuspendJob{Job: pj.Info.ID})
		}
	}
	for _, pj := range planned {
		switch {
		case pj.Suspend, pj.Waiting:
			// No placement this cycle.
		case pj.PlacedNew && pj.Info.State == batch.Pending:
			plan.Actions = append(plan.Actions, StartJob{Job: pj.Info.ID, Node: pj.Node, Share: pj.Share})
		case pj.PlacedNew && pj.Info.State == batch.Suspended:
			plan.Actions = append(plan.Actions, ResumeJob{Job: pj.Info.ID, Node: pj.Node, Share: pj.Share})
		case pj.Migrate:
			plan.Actions = append(plan.Actions, MigrateJob{Job: pj.Info.ID, Dst: pj.Node, Share: pj.Share})
		case pj.Info.State == batch.Running:
			tol := res.CPU(c.cfg.ShareTolerance) * pj.Info.MaxSpeed
			if res.CPU(math.Abs(float64(pj.Share-pj.Info.Share))) > tol {
				plan.Actions = append(plan.Actions, SetJobShare{Job: pj.Info.ID, Share: pj.Share})
			}
		}
	}
}
