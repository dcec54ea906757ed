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
	c.emitJobActions(ctx)

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
	for i := range plan.Actions {
		if a := &plan.Actions[i]; a.Kind == AddInstance {
			a.Share, _ = plannedShare(a.App, a.Node)
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
				plan.Actions = append(plan.Actions, Action{Kind: SetInstanceShare, App: app.ID, Node: n, Share: target})
			}
		}
	}
}

// emitJobActions translates planning records into the action list. A
// running job's share change within ShareTolerance of its speed cap is
// not worth an action, so it is suppressed — unless the node's job tier
// as enacted, every suppressed change left at its current share, would
// exceed the node's CPU: then that node's in-tolerance reductions are
// emitted too, because the placements they made room for are.
func (c *PlacementController) emitJobActions(ctx *planContext) {
	plan := ctx.plan
	// changed reports whether a running job's share moves beyond
	// tolerance.
	changed := func(pj *PlannedJob) bool {
		tol := res.CPU(c.cfg.ShareTolerance) * pj.Info.MaxSpeed
		return res.CPU(math.Abs(float64(pj.Share-pj.Info.Share))) > tol
	}
	for _, l := range ctx.ledgers.list {
		l.jobCPU = 0
		for _, pj := range l.Jobs {
			if !pj.PlacedNew && !pj.Migrate && !changed(pj) {
				l.jobCPU += pj.Info.Share
			} else {
				l.jobCPU += pj.Share
			}
		}
	}
	// overCPU reports whether the node's enacted job tier exceeds its
	// CPU, with CheckPlan's rounding allowance.
	overCPU := func(node cluster.NodeID) bool {
		l, ok := ctx.ledgers.Get(node)
		return ok && float64(l.jobCPU) > float64(l.Info.CPU)*(1+1e-9)
	}

	// Suspends first: the executor frees memory before filling it.
	for _, pj := range ctx.planned {
		if pj.Suspend {
			plan.Actions = append(plan.Actions, Action{Kind: SuspendJob, Job: pj.Info.ID})
		}
	}
	for _, pj := range ctx.planned {
		a := Action{Job: pj.Info.ID, Node: pj.Node, Share: pj.Share}
		switch {
		case pj.Suspend, pj.Waiting:
			continue // no placement this cycle
		case pj.PlacedNew && pj.Info.State == batch.Pending:
			a.Kind = StartJob
		case pj.PlacedNew && pj.Info.State == batch.Suspended:
			a.Kind = ResumeJob
		case pj.Migrate:
			a.Kind = MigrateJob
		case pj.Info.State == batch.Running &&
			(changed(pj) || (pj.Share < pj.Info.Share && overCPU(pj.Node))):
			a.Kind, a.Node = SetJobShare, ""
		default:
			continue
		}
		plan.Actions = append(plan.Actions, a)
	}
}
