package core

import (
	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/utility"
	"slaplace/internal/workload/trans"
)

// planScratch is the recycled working storage of the placement phases:
// the two node indexes (index.go) and the selection scratch buffers.
// It lives inside the per-controller planArena so index storage is
// reused across cycles; standalone contexts (newPlanContext) allocate
// one lazily on first use.
type planScratch struct {
	// pickIdx / webIdx are the job- and web-placement node indexes;
	// their bucket and heap backing arrays persist across cycles.
	pickIdx jobPickIndex
	webIdx  webPickIndex

	// evictable holds the eviction walk's candidate positions.
	evictable []int32

	// Web-placement per-app scratch: the current-instance ranking, the
	// kept-node list, the popped-candidate stack, and the kept-node set.
	webCur    []webInst
	webKept   []cluster.NodeID
	webPopped []*Ledger
	hasInst   map[cluster.NodeID]bool

	// Share-phase scratch: the per-node waterfill buffers and the
	// surplus spreader's sorted app-ID list (one of each call per node
	// per cycle).
	wfShares []res.CPU
	wfActive []int
	wfNext   []int
	webIDs   []trans.AppID

	// Rebalance scratch: the migration candidates and the per-node
	// headroom, indexed by Ledger.pos.
	rebCands []*PlannedJob
	heads    []res.CPU
}

// planArena owns the per-cycle planning books so consecutive control
// cycles reuse one allocation instead of rebuilding Ledgers and
// PlannedJob records from scratch every 600 s. The arena is embedded in
// the PlacementController and recycled under its lock; nothing handed
// to the caller (the Plan and its actions) ever aliases arena memory.
type planArena struct {
	scratch planScratch

	// ledgers are rebuilt only when the node set changes; nodesSig is
	// the exact NodeInfo slice they were built for.
	ledgers  *Ledgers
	nodesSig []NodeInfo

	// records is the flat PlannedJob backing store; planned holds the
	// per-pass pointer view phases share.
	records []PlannedJob
	planned []*PlannedJob

	// order is the job priority-order scratch buffer.
	order []*PlannedJob

	// curve scratch: per-app curves and the combined equalizer input.
	appCurves []utility.Curve
	curves    []utility.Curve

	// jobCurveSlab is the flat JobCurve backing store (one curve per
	// job, rebuilt in place every cycle) and eqScratch the equalizer's
	// recycled working storage — together they remove the two largest
	// per-cycle allocations from the targets phase.
	jobCurveSlab []utility.JobCurve
	eqScratch    utility.EqualizeScratch

	appTarget map[trans.AppID]res.CPU
}

// grabJobCurves returns n recyclable JobCurve slots. Like grabRecords,
// recycled slots hold the previous cycle's contents and must be
// overwritten wholesale (JobCurve.Fill) before use.
func (a *planArena) grabJobCurves(n int) []utility.JobCurve {
	if cap(a.jobCurveSlab) < n {
		a.jobCurveSlab = make([]utility.JobCurve, n)
	}
	a.jobCurveSlab = a.jobCurveSlab[:n]
	return a.jobCurveSlab
}

// context opens a planning pass backed by the arena's recycled books.
// It is the allocation-free counterpart of newPlanContext.
func (a *planArena) context(st *State) *planContext {
	if a.ledgers == nil || !nodeInfosEqual(a.nodesSig, st.Nodes) {
		a.ledgers = NewLedgers(st.Nodes)
		a.nodesSig = append(a.nodesSig[:0], st.Nodes...)
	} else {
		a.ledgers.reset()
	}
	if a.appTarget == nil {
		a.appTarget = make(map[trans.AppID]res.CPU)
	} else {
		clear(a.appTarget)
	}
	return &planContext{
		st:        st,
		plan:      NewPlan(),
		ledgers:   a.ledgers,
		arena:     a,
		appTarget: a.appTarget,
		order:     a.order[:0],
		scratch:   &a.scratch,
	}
}

// grabRecords returns n PlannedJob records plus their pointer view,
// recycling the arena's backing stores. Recycled records still hold the
// previous cycle's contents: the caller must overwrite each record
// wholesale (phaseTargets assigns a full struct literal per index)
// before any field is read.
func (a *planArena) grabRecords(n int) ([]PlannedJob, []*PlannedJob) {
	if cap(a.records) < n {
		a.records = make([]PlannedJob, n)
		a.planned = make([]*PlannedJob, n)
	}
	a.records = a.records[:n]
	a.planned = a.planned[:n]
	return a.records, a.planned
}

// nodeInfosEqual reports whether two node lists are identical in
// content and order.
func nodeInfosEqual(a, b []NodeInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reset clears the per-pass ledger state so the book set can host a new
// planning pass over the same nodes.
func (ls *Ledgers) reset() {
	for _, l := range ls.list {
		l.MemUsed = 0
		l.WebShare = 0
		l.JobCount = 0
		l.Jobs = l.Jobs[:0]
		l.index = nil
		clear(l.WebApps)
	}
}
