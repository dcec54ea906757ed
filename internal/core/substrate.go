package core

import (
	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// This file is the planning substrate shared by every controller: the
// per-node occupancy ledgers, the per-job planning records, and the
// plan bookkeeping helpers. The pipeline phases (pipeline.go) and the
// baseline policies (internal/baseline) both plan on these books, so
// memory/CPU accounting rules exist in exactly one place.

// PlannedJob is the planning record for one incomplete job during a
// planning pass. Phases progressively fill it in; the emission phase
// translates the final records into actions.
type PlannedJob struct {
	Info      JobInfo
	Target    res.CPU // equalized hypothetical allocation
	Node      cluster.NodeID
	Share     res.CPU // final planned share
	PlacedNew bool    // Start/Resume this cycle
	Migrate   bool    // live-migrate from Info.Node to Node
	Suspend   bool    // planned suspension (victim)
	Waiting   bool    // could not be placed

	// idx is the record's position in the snapshot's job list; the
	// controller memoizes priority orders across cycles through it.
	idx int32
	// lax is Info.Laxity(st.Now), cached once by the targets phase so
	// priority sorting and eviction probing don't recompute it per
	// comparison.
	lax float64
}

// Ledger tracks the planned occupancy of one node during a planning
// pass. MemUsed/WebShare are debited as workloads are (re)placed;
// FreeMem/FreeCPU report what remains plannable.
type Ledger struct {
	Info    NodeInfo
	MemUsed res.Memory
	// WebShare is the CPU reserved for the web tier on this node.
	WebShare res.CPU
	// JobCount counts planned jobs for policies that balance by count
	// without keeping per-job records (the baselines).
	JobCount int
	// Jobs are the per-job planning records the pipeline keeps (the
	// baselines leave it nil and use JobCount instead).
	Jobs []*PlannedJob
	// WebApps is the planned per-application web share on this node.
	WebApps map[trans.AppID]res.CPU

	// pos is the node's position in Ledgers.order (the scan tie-break
	// the job-placement index must reproduce). Set once by NewLedgers.
	pos int32
	// index, when non-nil, is the phase-local node index notified on
	// every occupancy mutation (index.go). heapPos/bucket are its
	// bookkeeping: the ledger's position inside the index structure.
	index   ledgerIndex
	heapPos int32
	bucket  int32
}

// touch notifies the attached node index, if any, of an occupancy
// change. Every mutation of MemUsed or Jobs must go through a hooked
// method (Occupy/Release/AddJob/RemoveJob/AppendJob/BookMem) or the
// phase indexes would silently diverge from the books.
func (l *Ledger) touch() {
	if l.index != nil {
		l.index.ledgerChanged(l)
	}
}

// FreeMem is the memory still plannable on this node.
func (l *Ledger) FreeMem() res.Memory { return l.Info.Mem - l.MemUsed }

// FreeCPU is the CPU power not reserved for the web tier.
func (l *Ledger) FreeCPU() res.CPU { return l.Info.CPU - l.WebShare }

// Occupy books a job's residency — memory and job count — on this
// node. Every policy must debit occupancy through Occupy/Release so
// the two balance signals (JobCount and memory) never diverge.
func (l *Ledger) Occupy(j JobInfo) {
	l.MemUsed += j.Mem
	l.JobCount++
	l.touch()
}

// Release undoes Occupy (eviction, preemption, migration away).
func (l *Ledger) Release(j JobInfo) {
	l.MemUsed -= j.Mem
	l.JobCount--
	l.touch()
}

// AddJob records a job as planned onto this node: residency plus the
// per-job planning record.
func (l *Ledger) AddJob(pj *PlannedJob) {
	l.MemUsed += pj.Info.Mem
	l.JobCount++
	l.Jobs = append(l.Jobs, pj)
	l.touch()
}

// AppendJob records the planning record of a job whose residency is
// already on the books (running jobs seeded by the targets phase).
func (l *Ledger) AppendJob(pj *PlannedJob) {
	l.Jobs = append(l.Jobs, pj)
	l.touch()
}

// RemoveJob undoes AddJob (used by the rebalance phase when a job
// moves between ledgers).
func (l *Ledger) RemoveJob(pj *PlannedJob) {
	for i, other := range l.Jobs {
		if other == pj {
			l.Jobs = append(l.Jobs[:i], l.Jobs[i+1:]...)
			break
		}
	}
	l.MemUsed -= pj.Info.Mem
	l.JobCount--
	l.touch()
}

// BookMem debits plannable memory without a job record — web instance
// residency. Like all occupancy mutations it keeps any attached node
// index consistent.
func (l *Ledger) BookMem(m res.Memory) {
	l.MemUsed += m
	l.touch()
}

// Ledgers is the book set for one planning pass: one Ledger per node,
// plus the deterministic iteration order every phase must use (map
// iteration order would break plan determinism). list holds the
// ledgers in that order, so scans walk a slice instead of hashing
// every node ID.
type Ledgers struct {
	byNode map[cluster.NodeID]*Ledger
	order  []cluster.NodeID
	list   []*Ledger
}

// NewLedgers opens empty books over the given nodes (a subset of the
// cluster is fine: the Static baseline partitions this way).
func NewLedgers(nodes []NodeInfo) *Ledgers {
	ls := &Ledgers{
		byNode: make(map[cluster.NodeID]*Ledger, len(nodes)),
		order:  make([]cluster.NodeID, 0, len(nodes)),
		list:   make([]*Ledger, 0, len(nodes)),
	}
	for i, n := range nodes {
		l := &Ledger{Info: n, WebApps: make(map[trans.AppID]res.CPU), pos: int32(i)}
		ls.byNode[n.ID] = l
		ls.order = append(ls.order, n.ID)
		ls.list = append(ls.list, l)
	}
	return ls
}

// Get returns the ledger for a node, or (nil, false) when the node is
// outside this book set (offline, or in another partition).
func (ls *Ledgers) Get(id cluster.NodeID) (*Ledger, bool) {
	l, ok := ls.byNode[id]
	return l, ok
}

// Order returns the deterministic node iteration order.
func (ls *Ledgers) Order() []cluster.NodeID { return ls.order }

// Each calls f for every ledger in deterministic order.
func (ls *Ledgers) Each(f func(*Ledger)) {
	for _, l := range ls.list {
		f(l)
	}
}

// SeedRunning accounts the memory (and job count) of already-running
// jobs hosted on this book set's nodes. Every policy must seed before
// reserving web capacity or placing jobs, or it will plan into
// occupied memory.
func (ls *Ledgers) SeedRunning(st *State) {
	for i := range st.Jobs {
		j := &st.Jobs[i]
		if j.State != batch.Running {
			continue
		}
		if l, ok := ls.byNode[j.Node]; ok {
			l.Occupy(*j)
		}
	}
}

// NewPlan allocates an empty plan with its prediction maps ready.
func NewPlan() *Plan {
	return &Plan{
		AppPrediction: make(map[trans.AppID]float64),
		AppDemand:     make(map[trans.AppID]res.CPU),
		AppTarget:     make(map[trans.AppID]res.CPU),
	}
}

// RecordJobUtility fills the plan's hypothetical-utility and demand
// diagnostics from the granted per-job shares, so every controller
// reports on the same axes as the paper's figures.
func RecordJobUtility(st *State, plan *Plan, jobShare map[batch.JobID]res.CPU) {
	var utilSum float64
	classSum := map[string]float64{}
	classN := map[string]int{}
	for i := range st.Jobs {
		j := &st.Jobs[i]
		curve := j.Curve(st.Now)
		plan.JobDemand += curve.MaxUseful()
		share := jobShare[j.ID]
		u := curve.UtilityAt(share)
		utilSum += u
		classSum[j.Class] += u
		classN[j.Class]++
		plan.JobTarget += share
	}
	if len(st.Jobs) > 0 {
		plan.HypotheticalJobUtility = utilSum / float64(len(st.Jobs))
		plan.ClassHypoUtility = make(map[string]float64, len(classSum))
		for class, sum := range classSum {
			plan.ClassHypoUtility[class] = sum / float64(classN[class])
		}
	}
}
