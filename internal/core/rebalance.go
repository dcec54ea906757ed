package core

import (
	"math"
	"slices"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// phaseRebalance plans live migrations for running jobs whose share on
// their node falls far below target while another node could do much
// better, bounded by MaxMigrationsPerCycle.
//
// Cost: O(nodes) per plan to take every node's headroom once, plus
// O(nodes) per candidate that passes the skip bound. No candidate can
// be granted more than min(maxHead, MaxSpeed), so a candidate whose
// bound is not positive, or is below MigrationGain times its current
// share, is skipped without a scan: the scan would find no node, or
// fail the gain test.
func (c *PlacementController) phaseRebalance(ctx *planContext) {
	if c.cfg.MaxMigrationsPerCycle <= 0 {
		return
	}
	sc := ctx.scratch
	// Most starved first: ascending share/target ratio.
	cands := sc.rebCands[:0]
	defer func() { sc.rebCands = cands[:0] }()
	for _, pj := range ctx.planned {
		if pj.Info.State != batch.Running || pj.Suspend || pj.Waiting || pj.PlacedNew || pj.Info.Migrating {
			continue
		}
		want := res.Min(pj.Target, pj.Info.MaxSpeed)
		if want <= 0 {
			continue
		}
		if pj.Share < res.CPU(c.cfg.MigrationThreshold)*want {
			cands = append(cands, pj)
		}
	}
	if len(cands) == 0 {
		return
	}
	// slices.SortStableFunc runs sort.SliceStable's algorithm and asks
	// only whether cmp < 0, so this is the old less, NaN ratios and all.
	slices.SortStableFunc(cands, func(a, b *PlannedJob) int {
		ra := float64(a.Share) / float64(res.Min(a.Target, a.Info.MaxSpeed))
		rb := float64(b.Share) / float64(res.Min(b.Target, b.Info.MaxSpeed))
		if ra < rb || ra == rb && a.Info.ID < b.Info.ID {
			return -1
		}
		return 0
	})

	ledgers := ctx.ledgers
	// heads[l.pos] is ledger l's headroom; a migration changes only the
	// source's and the destination's.
	heads := sc.heads[:0]
	for _, l := range ledgers.list {
		heads = append(heads, headroom(l))
	}
	sc.heads = heads
	maxHead := maxHeadroom(heads)

	migrations := 0
	for _, pj := range cands {
		if migrations >= c.cfg.MaxMigrationsPerCycle {
			break
		}
		bound := res.Min(maxHead, pj.Info.MaxSpeed)
		if bound <= 0 || float64(bound) < c.cfg.MigrationGain*float64(pj.Share) {
			continue
		}
		var best cluster.NodeID
		var bestShare res.CPU
		for _, l := range ledgers.list {
			if l.Info.ID == pj.Node || l.FreeMem() < pj.Info.Mem {
				continue
			}
			if projected := res.Min(heads[l.pos], pj.Info.MaxSpeed); projected > bestShare {
				best, bestShare = l.Info.ID, projected
			}
		}
		if best == "" || float64(bestShare) < c.cfg.MigrationGain*float64(pj.Share) {
			continue
		}
		src, _ := ledgers.Get(pj.Node)
		src.RemoveJob(pj)
		dst, _ := ledgers.Get(best)
		dst.AddJob(pj)
		pj.Migrate = true
		pj.Node = best
		pj.Share = bestShare
		migrations++
		heads[src.pos], heads[dst.pos] = headroom(src), headroom(dst)
		maxHead = maxHeadroom(heads)
	}
}

// headroom is the CPU a node could still grant one more job: its
// non-web CPU less its planned job shares, summed in the ledger's job
// order (the order fixes the float rounding).
func headroom(l *Ledger) res.CPU {
	var jobsShare res.CPU
	for _, other := range l.Jobs {
		jobsShare += other.Share
	}
	return l.FreeCPU() - jobsShare
}

// maxHeadroom is the largest headroom. A NaN headroom makes it NaN:
// res.Min(NaN, speed) is speed, so the skip bound then falls back to
// the job's speed cap, which bounds every projection.
func maxHeadroom(heads []res.CPU) res.CPU {
	maxHead := res.CPU(math.Inf(-1))
	for _, h := range heads {
		if h > maxHead || math.IsNaN(float64(h)) {
			maxHead = h
		}
	}
	return maxHead
}
