// Package baseline implements the comparison policies the benchmarks
// pit against the paper's utility-driven placement controller:
//
//   - Static: a fixed node partition between web and batch, the
//     approach of the Solaris Resource Manager consolidation study the
//     paper cites as prior art ([6]) — no dynamic trade-off at all.
//   - FCFS: shared nodes, jobs placed in arrival order at full speed,
//     never suspended or migrated; the web tier gets a fixed
//     demand-based reservation.
//   - EDF: like FCFS but ordered by completion-time goal with
//     preemption (earliest deadline first) — deadline-aware yet
//     utility-blind, so it cannot trade job lateness against web SLA.
//   - FairShare: capacity divided equally per workload entity,
//     ignoring utility curves entirely.
//
// All baselines implement core.Controller and plan on the same
// substrate as the real controller — core.Ledgers occupancy books and
// core's plan bookkeeping — so the differences under test are purely
// the policies, never the accounting.
package baseline

import (
	"math"
	"sort"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// reserveWeb places instances of every app across the given nodes and
// reserves share = min(app max-useful demand, spread across nodes). It
// emits instance actions onto the plan. Baselines keep web handling
// identical (fixed, demand-driven) so the differences under test are
// the job policies and the absence of utility trade-off.
func reserveWeb(st *core.State, plan *core.Plan, ledgers *core.Ledgers) {
	order := ledgers.Order()
	for ai := range st.Apps {
		app := &st.Apps[ai]
		demand := app.Curve().MaxUseful()
		plan.AppDemand[app.ID] = demand

		// Desired count, like the core controller's sizing rule.
		needed := 1
		if app.MaxPerInstance > 0 {
			needed = int(math.Ceil(float64(demand) / float64(app.MaxPerInstance)))
		}
		if needed < app.MinInstances {
			needed = app.MinInstances
		}
		if app.MaxInstances > 0 && needed > app.MaxInstances {
			needed = app.MaxInstances
		}
		if needed > len(order) {
			needed = len(order)
		}
		if needed < 1 {
			needed = 1
		}

		// Keep existing instances on nodes in this partition.
		kept := make([]cluster.NodeID, 0, needed)
		for _, n := range app.InstanceNodes() {
			if _, ok := ledgers.Get(n); !ok {
				continue
			}
			if len(kept) < needed {
				kept = append(kept, n)
			} else {
				plan.Actions = append(plan.Actions, core.Action{Kind: core.RemoveInstance, App: app.ID, Node: n})
			}
		}
		for _, n := range kept {
			l, _ := ledgers.Get(n)
			l.BookMem(app.InstanceMem)
		}
		if len(kept) < needed {
			has := map[cluster.NodeID]bool{}
			for _, n := range kept {
				has[n] = true
			}
			for _, n := range order {
				if len(kept) >= needed {
					break
				}
				l, _ := ledgers.Get(n)
				if has[n] || l.FreeMem() < app.InstanceMem {
					continue
				}
				kept = append(kept, n)
				l.BookMem(app.InstanceMem)
				plan.Actions = append(plan.Actions, core.Action{Kind: core.AddInstance, App: app.ID, Node: n})
			}
		}
		if len(kept) == 0 {
			continue
		}
		per := res.Min(demand/res.CPU(len(kept)), app.MaxPerInstance)
		for _, n := range kept {
			l, _ := ledgers.Get(n)
			share := res.Min(per, l.FreeCPU())
			l.WebShare += share
			plan.AppTarget[app.ID] += share
		}
		// Emit share adjustments / fill in AddInstance shares.
		for i := range plan.Actions {
			if a := &plan.Actions[i]; a.Kind == core.AddInstance && a.App == app.ID && a.Share == 0 {
				a.Share = per
			}
		}
		for _, n := range kept {
			cur, had := app.Instances[n]
			if had && math.Abs(float64(cur-per)) > 0.02*float64(app.MaxPerInstance) {
				plan.Actions = append(plan.Actions, core.Action{Kind: core.SetInstanceShare, App: app.ID, Node: n, Share: per})
			}
		}
		plan.AppPrediction[app.ID] = app.Curve().UtilityAt(plan.AppTarget[app.ID])
	}
}

// placeFullSpeed walks jobs in the given order and places unplaced ones
// at full speed on the emptiest feasible node of the subset. Running
// jobs on nodes of the subset are kept. Returns each job's granted
// share. If preempt is non-nil it may suspend running jobs to make
// room (EDF); preempt receives the candidate plus the set of jobs
// already suspended this pass — it must never return one of those
// (re-suspending would release the victim's memory twice and overcommit
// its node) — and returns a victim job ID or "".
func placeFullSpeed(st *core.State, plan *core.Plan, ledgers *core.Ledgers,
	jobOrder []*core.JobInfo,
	preempt func(cand *core.JobInfo, after []*core.JobInfo, suspended map[batch.JobID]bool) batch.JobID) map[batch.JobID]res.CPU {

	order := ledgers.Order()
	shares := make(map[batch.JobID]res.CPU, len(jobOrder))
	suspended := make(map[batch.JobID]bool)
	// Running residency was seeded by Ledgers.SeedRunning (callers must
	// do so before reserveWeb to keep memory accounting truthful).
	for idx, j := range jobOrder {
		if suspended[j.ID] {
			continue
		}
		if j.State == batch.Running {
			if _, ok := ledgers.Get(j.Node); ok {
				shares[j.ID] = res.Min(j.MaxSpeed, j.Share)
				if j.Share < j.MaxSpeed {
					// Baselines always run placed jobs at full speed.
					plan.Actions = append(plan.Actions, core.Action{Kind: core.SetJobShare, Job: j.ID, Share: j.MaxSpeed})
					shares[j.ID] = j.MaxSpeed
				}
			}
			continue
		}
		// Find the emptiest feasible node.
		var best cluster.NodeID
		bestCount := math.MaxInt
		for _, n := range order {
			l, _ := ledgers.Get(n)
			if l.FreeMem() < j.Mem {
				continue
			}
			if l.JobCount < bestCount {
				best, bestCount = n, l.JobCount
			}
		}
		if best == "" && preempt != nil {
			victim := preempt(j, jobOrder[idx+1:], suspended)
			if victim != "" {
				for _, v := range jobOrder {
					if v.ID == victim {
						suspended[victim] = true
						plan.Actions = append(plan.Actions, core.Action{Kind: core.SuspendJob, Job: victim})
						l, _ := ledgers.Get(v.Node)
						l.Release(v.Mem)
						delete(shares, victim)
						if l.FreeMem() >= j.Mem {
							best = v.Node
						}
						break
					}
				}
			}
		}
		if best == "" {
			continue // waits in queue
		}
		l, _ := ledgers.Get(best)
		l.Occupy(j.Mem)
		shares[j.ID] = j.MaxSpeed
		if j.State == batch.Pending {
			plan.Actions = append(plan.Actions, core.Action{Kind: core.StartJob, Job: j.ID, Node: best, Share: j.MaxSpeed})
		} else {
			plan.Actions = append(plan.Actions, core.Action{Kind: core.ResumeJob, Job: j.ID, Node: best, Share: j.MaxSpeed})
		}
	}
	return shares
}

// jobPtrs returns pointers to the state's jobs in submission order.
func jobPtrs(st *core.State) []*core.JobInfo {
	out := make([]*core.JobInfo, len(st.Jobs))
	for i := range st.Jobs {
		out[i] = &st.Jobs[i]
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Submitted != out[b].Submitted {
			return out[a].Submitted < out[b].Submitted
		}
		return out[a].ID < out[b].ID
	})
	return out
}
