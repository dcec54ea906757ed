package core

import (
	"cmp"
	"math"
	"slices"

	"slaplace/internal/cluster"
	"slaplace/internal/workload/batch"
)

// jobCmp orders jobs for placement: least laxity (most urgent) first;
// running jobs win ties (placement inertia); then submission order,
// job ID, and finally the record's snapshot position idx. It reads the
// laxity the targets phase cached on each record (laxity is a pure
// function of the snapshot, so caching it once per cycle is exact while
// sparing every comparison two float divisions).
//
// The idx tie-break makes the order total, so an unstable sort returns
// exactly what a stable sort of the idx-ordered planned list would.
// The float keys compare with < and >, so a NaN laxity or submission
// time (unreachable through the api and the simulator, which reject
// non-finite goals and times and zero speed caps) falls through to the
// remaining keys.
func jobCmp(a, b *PlannedJob) int {
	if c := floatCmp(a.lax, b.lax); c != 0 {
		return c
	}
	if ra, rb := a.Info.State == batch.Running, b.Info.State == batch.Running; ra != rb {
		if ra {
			return -1
		}
		return 1
	}
	if c := floatCmp(a.Info.Submitted, b.Info.Submitted); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Info.ID, b.Info.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// floatCmp is -1 when a < b, 1 when a > b, and 0 otherwise (equal, or
// either is NaN).
func floatCmp(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// radixCutoff is the job count below which sortJobs runs the
// comparison sort alone (BenchmarkSortJobs: they break even between 256
// and 384 jobs; at 5000 the radix route takes a third of the time).
const radixCutoff = 384

// jobKey is a record and its laxity as an orderable integer.
type jobKey struct {
	key uint64
	pj  *PlannedJob
}

// orderable maps a non-NaN float64 onto a uint64 of the same order,
// with -0 folded onto +0 (floatCmp calls them equal).
func orderable(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	b := math.Float64bits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortJobs sorts order into exactly slices.SortFunc(order, jobCmp)'s
// order. From radixCutoff jobs up it radix-sorts the laxities (LSD,
// in keys and tmp) and sorts each run of equal laxities by jobCmp:
// jobCmp is a total order unless a laxity or submission time is NaN,
// and then the comparison sort runs alone.
func sortJobs(order []*PlannedJob, keys, tmp *[]jobKey) {
	n := len(order)
	if n < radixCutoff {
		slices.SortFunc(order, jobCmp)
		return
	}
	src, dst := grow(*keys, n), grow(*tmp, n)
	*keys, *tmp = src, dst
	var counts [8][256]int
	for i, pj := range order {
		if math.IsNaN(pj.lax) || math.IsNaN(pj.Info.Submitted) {
			slices.SortFunc(order, jobCmp)
			return
		}
		src[i] = jobKey{orderable(pj.lax), pj}
		for d := range counts {
			counts[d][byte(src[i].key>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if c[byte(src[0].key>>(8*d))] == n {
			continue // every key has this digit
		}
		at := 0
		for b, m := range c {
			c[b], at = at, at+m
		}
		for _, e := range src {
			b := byte(e.key >> (8 * d))
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	for i := 0; i < n; {
		j := i
		for ; j < n && src[j].key == src[i].key; j++ {
			order[j] = src[j].pj
		}
		if j-i > 1 {
			slices.SortFunc(order[i:j], jobCmp)
		}
		i = j
	}
}

// phaseJobPlacement fixes the run-set: which jobs run where, who gets
// suspended, who waits. Node selection goes through the jobPickIndex
// (index.go) — O(log nodes) per decision instead of a full ledger scan
// — and eviction probing through a maintained list of evictable
// positions; both are byte-identical to the reference scans
// (pickNodeScan and the tail walk in index_test.go).
func (c *PlacementController) phaseJobPlacement(ctx *planContext) {
	ledgers := ctx.ledgers
	order := ctx.sortedOrder()

	sc := ctx.scratch
	pick := &sc.pickIdx
	pick.build(ledgers)
	defer pick.detach(ledgers)

	// Evictable running jobs by priority-order position, ascending.
	// evictVictim walks it from the least urgent end instead of
	// re-scanning the whole priority tail past every waiting job.
	evictable := sc.evictable[:0]
	for p, pj := range order {
		if pj.Info.State == batch.Running && !pj.Suspend && !pj.Waiting {
			evictable = append(evictable, int32(p))
		}
	}
	defer func() { sc.evictable = evictable[:0] }()

	for idx, pj := range order {
		switch {
		case pj.Suspend, pj.Waiting:
			// Victim of a more urgent job, or stranded on a vanished
			// node awaiting eviction; either way not placeable now.
			continue
		case pj.Info.State == batch.Running && (c.cfg.ChurnAware || pj.Info.Migrating):
			// Keep in place (residency already booked by the targets
			// phase); migrations only through the bounded rebalance
			// pass.
			l, _ := ledgers.Get(pj.Node)
			l.AppendJob(pj)
		case pj.Info.State == batch.Running:
			// Churn-oblivious ablation: re-pick the node from scratch
			// and migrate whenever the choice differs.
			src, _ := ledgers.Get(pj.Node)
			src.Release(pj.Info.Mem)
			var node cluster.NodeID
			best := pick.pick(pj.Info.Mem)
			if best != nil {
				node = best.Info.ID
			}
			if node == "" || node == pj.Info.Node {
				node = pj.Info.Node
				best, _ = ledgers.Get(node)
			} else {
				pj.Migrate = true
			}
			pj.Node = node
			best.AddJob(pj)
		default: // Pending or Suspended: place if memory allows.
			var node cluster.NodeID
			best := pick.pick(pj.Info.Mem)
			if best != nil {
				node = best.Info.ID
			}
			if node == "" {
				// Try suspending the least urgent unconfirmed running
				// job to make room.
				node = c.evictVictim(pj, order, idx, &evictable, ledgers)
				if node != "" {
					best, _ = ledgers.Get(node)
				}
			}
			if node == "" {
				pj.Waiting = true
				continue
			}
			best.AddJob(pj)
			pj.Node = node
			pj.PlacedNew = true
		}
	}
}

// evictVictim suspends the least urgent not-yet-confirmed running job
// whose departure lets pj fit on its node, subject to the eviction
// hysteresis margin. evictable lists the evictable running jobs'
// positions in the priority order, ascending; entries at or before idx
// were already confirmed in place by the main loop and are never
// probed (the old tail re-scan skipped them one by one instead).
// Returns the freed node, or "".
func (c *PlacementController) evictVictim(pj *PlannedJob, order []*PlannedJob, idx int, evictable *[]int32, ledgers *Ledgers) cluster.NodeID {
	candLax := pj.lax
	list := *evictable
	// Walk from the least urgent end.
	for i := len(list) - 1; i >= 0; i-- {
		p := int(list[i])
		if p <= idx {
			break
		}
		victim := order[p]
		if candLax > victim.lax-c.cfg.EvictionMargin {
			// Not enough urgency advantage to justify a suspend/resume
			// round trip; later victims are even more urgent, stop.
			return ""
		}
		l, _ := ledgers.Get(victim.Node)
		if l.FreeMem()+victim.Info.Mem < pj.Info.Mem {
			continue
		}
		victim.Suspend = true
		l.Release(victim.Info.Mem)
		copy(list[i:], list[i+1:])
		*evictable = list[:len(list)-1]
		return victim.Node
	}
	return ""
}
