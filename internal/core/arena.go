package core

import (
	"slices"
	"sync"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/utility"
	"slaplace/internal/workload/trans"
)

// planScratch is the recycled working storage of the placement phases:
// the two node indexes (index.go) and the selection scratch buffers.
// It lives inside the plan-scoped planArena, so index storage is reused
// across plans; standalone contexts (newPlanContext) allocate one
// lazily on first use.
type planScratch struct {
	// pickIdx / webIdx are the job- and web-placement node indexes;
	// their bucket and heap backing arrays persist across cycles.
	pickIdx jobPickIndex
	webIdx  webPickIndex

	// evictable holds the eviction walk's candidate positions.
	evictable []int32

	// Web-placement scratch: every app's current-instance ranking, app
	// i's at [webAt[i], webAt[i+1]), and the kept instances' memory not
	// yet booked, by Ledger.pos; then, per app, the kept-node list, the
	// popped-candidate stack, and the kept-node set.
	webCur     []webInst
	webAt      []int
	webPending []res.Memory
	webKept    []cluster.NodeID
	webPopped  []*Ledger
	hasInst    map[cluster.NodeID]bool

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

	// instNodes holds every app's sorted instance nodes, app i's at
	// [instAt[i], instAt[i+1]); planContext.instanceNodes fills it once
	// per pass.
	instNodes []cluster.NodeID
	instAt    []int
}

// planArena is one plan's scratch: everything sized by the job count or
// needed only while a pass runs. Plan borrows one from the free list
// (arenas) and returns it when done, so there are as many arenas as
// the peak number of plans in flight (client concurrency × shards),
// however many idle controllers the process holds. Every pass
// overwrites what it reads, whichever cluster used the arena last, and
// nothing handed to the caller (the Plan and its actions, copied out
// of the arena's buffer) aliases it.
type planArena struct {
	scratch planScratch

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
	// job, rebuilt in place every pass) and eqScratch the equalizer's
	// recycled working storage — together they remove the two largest
	// per-plan allocations from the targets phase.
	jobCurveSlab []utility.JobCurve
	eqScratch    utility.EqualizeScratch

	appTarget map[trans.AppID]res.CPU

	// actions is the buffer the phases emit the plan's actions into.
	actions []Action
}

// arenas is the free list of plan arenas: LIFO, so a lone session gets
// back the same warm arena every plan, and never shrunk (a sync.Pool
// is drained by the GC between requests and re-grown on the next).
var arenas struct {
	mu   sync.Mutex
	free []*planArena
}

// acquireArena takes the most recently released arena, or a new one
// when every arena is in flight.
func acquireArena() *planArena {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	if n := len(arenas.free); n > 0 {
		a := arenas.free[n-1]
		arenas.free = arenas.free[:n-1]
		return a
	}
	return &planArena{appTarget: make(map[trans.AppID]res.CPU)}
}

// release returns the arena to the free list.
func (a *planArena) release() {
	arenas.mu.Lock()
	arenas.free = append(arenas.free, a)
	arenas.mu.Unlock()
}

// grow reslices s to n elements, keeping stale contents. A first
// allocation is exact; a regrowth leaves a quarter of headroom, so a
// creeping job count reallocates a slab a logarithmic number of times,
// not on every new maximum.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		c := n
		if cap(s) > 0 {
			c += n / 4
		}
		s = make([]T, n, c)
	}
	return s[:n]
}

// context opens a planning pass over the controller's ledgers, backed
// by the arena's recycled scratch. It is the allocation-free
// counterpart of newPlanContext. The ledgers are rebuilt only when the
// node set changes.
func (c *PlacementController) context(st *State, a *planArena) *planContext {
	if c.ledgers == nil || !slices.Equal(c.nodesSig, st.Nodes) {
		c.ledgers = NewLedgers(st.Nodes)
		c.nodesSig = append(c.nodesSig[:0], st.Nodes...)
	} else {
		c.ledgers.reset()
	}
	clear(a.appTarget)
	plan := NewPlan()
	plan.Actions = a.actions[:0]
	return &planContext{
		st:        st,
		plan:      plan,
		ledgers:   c.ledgers,
		arena:     a,
		appTarget: a.appTarget,
		order:     a.order[:0],
		scratch:   &a.scratch,
	}
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
