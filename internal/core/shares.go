package core

import (
	"slaplace/internal/res"
	"slaplace/internal/workload/trans"
)

// phaseShares divides each node's CPU between its reserved web share
// and its planned jobs (waterfill up to each job's cap), then feeds
// any surplus back to the web instances.
func (c *PlacementController) phaseShares(ctx *planContext) {
	ledgers := ctx.ledgers
	sc := ctx.scratch
	// Track each app's planned total so surplus feeding never pushes an
	// app beyond its maximum useful demand (extra CPU there is wasted).
	appAlloc := make(map[trans.AppID]res.CPU)
	ledgers.Each(func(l *Ledger) {
		for id, s := range l.WebApps {
			appAlloc[id] += s
		}
	})
	ledgers.Each(func(l *Ledger) {
		available := l.FreeCPU()
		if available < 0 {
			available = 0
		}
		shares := waterfillJobsInto(sc, l.Jobs, available)
		var used res.CPU
		for i, pj := range l.Jobs {
			pj.Share = shares[i]
			used += shares[i]
		}
		// Surplus back to this node's web instances (up to per-instance
		// caps and app demand): jobs all capped and CPU remains.
		surplus := available - used
		if surplus > 0 && len(l.WebApps) > 0 {
			c.spreadWebSurplus(ctx, l, surplus, appAlloc)
		}
	})
}

// waterfillJobsInto divides capacity among jobs, each capped at its
// target ceiling: the job's max speed (a running job may receive more
// than its hypothetical target because only placed jobs can use real
// CPU). It runs once per node per cycle, so it works in recycled
// scratch; the returned slice aliases it until the next call.
func waterfillJobsInto(sc *planScratch, jobs []*PlannedJob, capacity res.CPU) []res.CPU {
	if cap(sc.wfShares) < len(jobs) {
		sc.wfShares = make([]res.CPU, len(jobs))
		sc.wfActive = make([]int, 0, len(jobs))
		sc.wfNext = make([]int, 0, len(jobs))
	}
	shares := sc.wfShares[:len(jobs)]
	for i := range shares {
		shares[i] = 0
	}
	if len(jobs) == 0 || capacity <= 0 {
		return shares
	}
	remaining := capacity
	active := sc.wfActive[:0]
	for i := range jobs {
		active = append(active, i)
	}
	spare := sc.wfNext[:0]
	for len(active) > 0 && remaining > 1e-9 {
		per := remaining / res.CPU(len(active))
		next := spare[:0]
		var handed res.CPU
		for _, i := range active {
			speedCap := jobs[i].Info.MaxSpeed
			want := speedCap - shares[i]
			if want <= per {
				shares[i] = speedCap
				handed += want
			} else {
				shares[i] += per
				handed += per
				next = append(next, i)
			}
		}
		remaining -= handed
		if len(next) == len(active) {
			break // nobody capped; equal split is final
		}
		active, spare = next, active
	}
	return shares
}
