package baseline

import (
	"fmt"
	"sort"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// The baselines deliberately keep full re-planning: they rebuild their
// books from scratch every cycle rather than opting into the
// incremental carry-over the utility controller performs
// (core/incremental.go). They are comparison yardsticks, not hot
// paths; a from-scratch pass per cycle keeps them trivially correct.

// Static partitions the cluster: the first ⌈BatchFraction×N⌉ nodes run
// jobs, the rest run the web tier. Neither side ever borrows from the
// other — the static consolidation the paper improves upon.
type Static struct {
	// BatchFraction is the fraction of nodes dedicated to jobs,
	// in (0, 1).
	BatchFraction float64
}

var _ core.Controller = Static{}

// Name implements core.Controller.
func (s Static) Name() string { return fmt.Sprintf("static[batch=%.0f%%]", s.BatchFraction*100) }

// Plan implements core.Controller.
func (s Static) Plan(st *core.State) *core.Plan {
	if s.BatchFraction <= 0 || s.BatchFraction >= 1 {
		panic(fmt.Sprintf("baseline: Static.BatchFraction %v outside (0,1)", s.BatchFraction))
	}
	plan := core.NewPlan()
	nBatch := int(float64(len(st.Nodes))*s.BatchFraction + 0.999999)
	if nBatch >= len(st.Nodes) && len(st.Nodes) > 1 {
		nBatch = len(st.Nodes) - 1
	}
	batchNodes := st.Nodes[:nBatch]
	webNodes := st.Nodes[nBatch:]

	webLedgers := core.NewLedgers(webNodes)
	webLedgers.SeedRunning(st)
	reserveWeb(st, plan, webLedgers)

	batchLedgers := core.NewLedgers(batchNodes)
	batchLedgers.SeedRunning(st)
	jobs := jobPtrs(st)
	shares := placeFullSpeed(st, plan, batchLedgers, jobs, nil)
	core.RecordJobUtility(st, plan, shares)
	return plan
}

// FCFS shares every node: jobs are placed in strict arrival order at
// full speed and never preempted; the web tier holds a demand-based
// reservation on all nodes.
type FCFS struct{}

var _ core.Controller = FCFS{}

// Name implements core.Controller.
func (FCFS) Name() string { return "fcfs" }

// Plan implements core.Controller.
func (FCFS) Plan(st *core.State) *core.Plan {
	plan := core.NewPlan()
	ledgers := core.NewLedgers(st.Nodes)
	ledgers.SeedRunning(st)
	reserveWeb(st, plan, ledgers)
	jobs := jobPtrs(st)
	shares := placeFullSpeed(st, plan, ledgers, jobs, nil)
	core.RecordJobUtility(st, plan, shares)
	return plan
}

// EDF shares every node and runs the jobs with the earliest
// completion-time goals, preempting later-deadline jobs when memory is
// short. Deadline-aware but utility-blind: it cannot decide when the
// web tier should yield CPU to the batch tier or vice versa.
type EDF struct{}

var _ core.Controller = EDF{}

// Name implements core.Controller.
func (EDF) Name() string { return "edf" }

// Plan implements core.Controller.
func (EDF) Plan(st *core.State) *core.Plan {
	plan := core.NewPlan()
	ledgers := core.NewLedgers(st.Nodes)
	ledgers.SeedRunning(st)
	reserveWeb(st, plan, ledgers)

	jobs := jobPtrs(st)
	sort.SliceStable(jobs, func(a, b int) bool {
		if jobs[a].Goal != jobs[b].Goal {
			return jobs[a].Goal < jobs[b].Goal
		}
		return jobs[a].ID < jobs[b].ID
	})
	preempt := func(cand *core.JobInfo, after []*core.JobInfo, suspended map[batch.JobID]bool) batch.JobID {
		// Latest-deadline running job strictly after the candidate that
		// has not already been suspended this pass.
		for i := len(after) - 1; i >= 0; i-- {
			v := after[i]
			if v.State == batch.Running && !suspended[v.ID] && v.Goal > cand.Goal {
				if _, ok := ledgers.Get(v.Node); ok {
					return v.ID
				}
			}
		}
		return ""
	}
	shares := placeFullSpeed(st, plan, ledgers, jobs, preempt)
	core.RecordJobUtility(st, plan, shares)
	return plan
}

// FairShare divides the cluster CPU equally among workload entities
// (each web application and each incomplete job counts as one),
// ignoring utility entirely. Jobs run (least-laxity order) as far as
// memory allows, at the equal share rather than full speed.
type FairShare struct{}

var _ core.Controller = FairShare{}

// Name implements core.Controller.
func (FairShare) Name() string { return "fairshare" }

// Plan implements core.Controller.
func (FairShare) Plan(st *core.State) *core.Plan {
	plan := core.NewPlan()
	ledgers := core.NewLedgers(st.Nodes)
	ledgers.SeedRunning(st)
	order := ledgers.Order()

	entities := len(st.Apps) + len(st.Jobs)
	if entities == 0 {
		return plan
	}
	perEntity := st.TotalCPU() / res.CPU(entities)

	// Web: equal share, capped by demand, spread over instances.
	for ai := range st.Apps {
		app := &st.Apps[ai]
		curve := app.Curve()
		plan.AppDemand[app.ID] = curve.MaxUseful()
		target := res.Min(perEntity, curve.MaxUseful())
		needed := app.MinInstances
		if needed < 1 {
			needed = 1
		}
		if needed > len(order) {
			needed = len(order)
		}
		kept := make([]cluster.NodeID, 0, needed)
		for _, n := range app.InstanceNodes() {
			if l, ok := ledgers.Get(n); ok && len(kept) < needed {
				kept = append(kept, n)
				l.BookMem(app.InstanceMem)
			}
		}
		for _, n := range order {
			if len(kept) >= needed {
				break
			}
			l, _ := ledgers.Get(n)
			if app.Instances[n] > 0 || l.FreeMem() < app.InstanceMem {
				continue
			}
			kept = append(kept, n)
			l.BookMem(app.InstanceMem)
			plan.Actions = append(plan.Actions, core.Action{Kind: core.AddInstance, App: app.ID, Node: n, Share: target / res.CPU(needed)})
		}
		if len(kept) == 0 {
			continue
		}
		per := res.Min(target/res.CPU(len(kept)), app.MaxPerInstance)
		for _, n := range kept {
			l, _ := ledgers.Get(n)
			l.WebShare += per
			plan.AppTarget[app.ID] += per
			cur, had := app.Instances[n]
			if had && !res.AlmostEqual(cur, per) {
				plan.Actions = append(plan.Actions, core.Action{Kind: core.SetInstanceShare, App: app.ID, Node: n, Share: per})
			}
		}
		plan.AppPrediction[app.ID] = curve.UtilityAt(plan.AppTarget[app.ID])
	}

	// Jobs: least laxity first, at the equal share.
	jobs := jobPtrs(st)
	sort.SliceStable(jobs, func(a, b int) bool {
		la, lb := jobs[a].Laxity(st.Now), jobs[b].Laxity(st.Now)
		if la != lb {
			return la < lb
		}
		return jobs[a].ID < jobs[b].ID
	})
	shares := make(map[batch.JobID]res.CPU, len(jobs))
	for _, j := range jobs {
		share := res.Min(perEntity, j.MaxSpeed)
		if j.State == batch.Running {
			if _, ok := ledgers.Get(j.Node); ok {
				// Residency already accounted by SeedRunning.
				shares[j.ID] = share
				if !res.AlmostEqual(share, j.Share) {
					plan.Actions = append(plan.Actions, core.Action{Kind: core.SetJobShare, Job: j.ID, Share: share})
				}
			}
			continue
		}
		var best cluster.NodeID
		var bestFree res.Memory = -1
		for _, n := range order {
			l, _ := ledgers.Get(n)
			if l.FreeMem() >= j.Mem && l.FreeMem() > bestFree {
				best, bestFree = n, l.FreeMem()
			}
		}
		if best == "" {
			continue
		}
		l, _ := ledgers.Get(best)
		l.Occupy(j.Mem)
		shares[j.ID] = share
		if j.State == batch.Pending {
			plan.Actions = append(plan.Actions, core.Action{Kind: core.StartJob, Job: j.ID, Node: best, Share: share})
		} else {
			plan.Actions = append(plan.Actions, core.Action{Kind: core.ResumeJob, Job: j.ID, Node: best, Share: share})
		}
	}
	core.RecordJobUtility(st, plan, shares)
	return plan
}
