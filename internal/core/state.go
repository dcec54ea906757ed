// Package core implements the paper's primary contribution: the
// placement controller that manages heterogeneous workloads — web
// applications with response-time SLAs and long-running jobs with
// completion-time SLAs — on one virtualized cluster.
//
// Every control cycle (600 s in the paper) the controller receives a
// State snapshot and produces a Plan:
//
//  1. Build a utility curve per workload (per job, per application)
//     from current progress, goals and measured arrival rates.
//  2. Equalize hypothetical utility across all curves over the
//     cluster's total CPU power (internal/utility) — the continuous,
//     placement-oblivious allocation the paper describes in §2.
//  3. Round the continuous allocation into a discrete placement under
//     per-node memory constraints, preferring to keep work where it
//     runs (suspend/resume/migrate have real costs), suspending the
//     least urgent jobs under memory pressure and reserving each web
//     application's equalized share on the nodes of its instances.
//
// The Controller interface is shared with internal/baseline so the
// benchmark harness can swap policies freely.
package core

import (
	"slices"
	"strconv"

	"slaplace/internal/cluster"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/utility"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// NodeInfo is a node's capacity as seen by the planner.
type NodeInfo struct {
	ID  cluster.NodeID
	CPU res.CPU
	Mem res.Memory
}

// JobInfo is one incomplete job's snapshot.
type JobInfo struct {
	ID        batch.JobID
	Class     string         // job class name (service differentiation)
	State     batch.State    // Pending, Running or Suspended
	Node      cluster.NodeID // hosting node when Running ("" otherwise)
	Share     res.CPU        // current share when Running
	Migrating bool           // a live migration is already in flight
	Remaining res.Work       // work left
	MaxSpeed  res.CPU
	Mem       res.Memory
	Goal      float64 // absolute completion goal
	Submitted float64
	Fn        utility.Function // nil = default
}

// Laxity is the job's slack: time to goal minus remaining run time at
// full speed. Negative means the goal is no longer reachable. The
// planner runs the least-lax jobs first — the discrete counterpart of
// "give to the least satisfied".
func (j *JobInfo) Laxity(now float64) float64 {
	return (j.Goal - now) - j.Remaining.Seconds(j.MaxSpeed)
}

// Curve builds the job's hypothetical-utility curve.
func (j JobInfo) Curve(now float64) *utility.JobCurve {
	return utility.NewJobCurve(string(j.ID), now, j.Remaining, j.MaxSpeed, j.Goal, j.Fn)
}

// FillCurve rebuilds the job's utility curve in place — the
// allocation-free counterpart of Curve for arena-recycled curve slabs.
func (j *JobInfo) FillCurve(c *utility.JobCurve, now float64) {
	c.Fill(string(j.ID), now, j.Remaining, j.MaxSpeed, j.Goal, j.Fn)
}

// AppInfo is one web application's snapshot.
type AppInfo struct {
	ID             trans.AppID
	Lambda         float64 // measured arrival rate (req/s)
	RTGoal         float64
	Model          queueing.Model
	Fn             utility.Function // nil = default
	InstanceMem    res.Memory
	MaxPerInstance res.CPU
	MinInstances   int
	MaxInstances   int // 0 = unbounded
	// Instances maps hosting node to the instance's current share.
	Instances map[cluster.NodeID]res.CPU
	// MeasuredRT is the observed mean response time this cycle
	// (+Inf when overloaded; 0 when unknown).
	MeasuredRT float64
}

// Curve builds the app's utility curve at its measured arrival rate.
func (a AppInfo) Curve() *utility.TransCurve {
	return utility.NewTransCurve(string(a.ID), a.Lambda, a.RTGoal, a.Model, a.Fn)
}

// InstanceNodes returns the instance-hosting nodes in sorted order.
func (a AppInfo) InstanceNodes() []cluster.NodeID {
	out := make([]cluster.NodeID, 0, len(a.Instances))
	for n := range a.Instances {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// State is the monitoring snapshot a controller plans from. Only
// incomplete jobs appear. States are value snapshots: planning must not
// mutate the world.
//
// A State handed to Controller.Plan belongs to the controller from then
// on: it may read the State, and every slice and map it references,
// until its next Plan call returns. A caller never changes a State
// after handing it over; the next cycle gets a new State, which may
// share unchanged parts with the old one.
type State struct {
	Now   float64
	Nodes []NodeInfo
	Jobs  []JobInfo
	Apps  []AppInfo

	// appIdx is the lazily built ID→position lookup behind AppByID;
	// appIdxLen/appIdxHead fingerprint the Apps slice it was built for.
	appIdx     map[trans.AppID]int32
	appIdxLen  int
	appIdxHead *AppInfo
}

// buildAppIdx (re)builds the ID→position lookup, first match winning
// like a scan of Apps would.
func (s *State) buildAppIdx() {
	s.appIdx = make(map[trans.AppID]int32, len(s.Apps))
	for i := range s.Apps {
		if _, dup := s.appIdx[s.Apps[i].ID]; !dup {
			s.appIdx[s.Apps[i].ID] = int32(i)
		}
	}
	s.appIdxLen = len(s.Apps)
	s.appIdxHead = nil
	if len(s.Apps) > 0 {
		s.appIdxHead = &s.Apps[0]
	}
}

// AppByID returns the application with the given ID (the first match,
// like a scan of Apps), or nil. The lookup index is built on first use
// and rebuilt when the Apps slice is replaced or resized, so planning
// phases look apps up by ID in O(1) — including repeated lookups of
// absent IDs. Lazy building is not synchronized: a State must not see
// its first AppByID call from two goroutines at once (planners own
// their snapshots, so this does not arise).
func (s *State) AppByID(id trans.AppID) *AppInfo {
	if s.appIdx == nil || s.appIdxLen != len(s.Apps) ||
		(len(s.Apps) > 0 && s.appIdxHead != &s.Apps[0]) {
		s.buildAppIdx()
	}
	if i, ok := s.appIdx[id]; ok {
		if s.Apps[i].ID == id {
			return &s.Apps[i]
		}
		// The entry's ID was rewritten in place since the build:
		// rebuild once and retry. (A rewrite can only be detected on a
		// hit; States are value snapshots, so in-place ID rewrites
		// between lookups are out of contract anyway.)
		s.buildAppIdx()
		if i, ok := s.appIdx[id]; ok {
			return &s.Apps[i]
		}
	}
	return nil
}

// TotalCPU sums node CPU capacity.
func (s *State) TotalCPU() res.CPU {
	var sum res.CPU
	for _, n := range s.Nodes {
		sum += n.CPU
	}
	return sum
}

// ActionKind names one of the eight placement decisions. The kinds are
// numbered 1-8 in the order of package api's actionTypes, so a kind is
// its own one-byte code on the binary wire; the zero kind is invalid.
type ActionKind uint8

// The action kinds, in wire-code order.
const (
	StartJob         ActionKind = iota + 1 // place a pending job on Node at Share
	ResumeJob                              // restore a suspended job on Node at Share
	SuspendJob                             // checkpoint a running job
	MigrateJob                             // live-migrate a running job to Node, at Share during and after
	SetJobShare                            // adjust a running job's CPU share
	AddInstance                            // place a new instance of App on Node at Share
	RemoveInstance                         // retire App's instance on Node
	SetInstanceShare                       // adjust the share of App's instance on Node
)

// Action is one placement decision: a kind and the fields that kind
// reads — Job for the job kinds, App for the instance kinds, Node and
// Share for the kinds that place or re-share. The executor in
// internal/control translates actions into vm/workload operations,
// sequencing the actions that free memory before the placements that
// need it.
type Action struct {
	Kind  ActionKind
	Job   batch.JobID
	App   trans.AppID
	Node  cluster.NodeID
	Share res.CPU
}

// Frees reports whether the action frees memory (a suspension or an
// instance removal). It is the one rule behind every freeing-first
// order: the executor's, the sharded merge's and FreeingFirst's.
func (a Action) Frees() bool { return a.Kind == SuspendJob || a.Kind == RemoveInstance }

// String implements fmt.Stringer. Plan.Digest hashes this text.
func (a Action) String() string { return string(a.appendText(nil)) }

// actionText is each kind's String layout: the words before its job or
// app, and those before its node and its share ("" where the kind
// names none).
var actionText = [...]struct{ head, node, share string }{
	StartJob:         {"start job ", " on ", " @ "},
	ResumeJob:        {"resume job ", " on ", " @ "},
	SuspendJob:       {"suspend job ", "", ""},
	MigrateJob:       {"migrate job ", " to ", " @ "},
	SetJobShare:      {"set job ", "", " share "},
	AddInstance:      {"add instance of ", " on ", " @ "},
	RemoveInstance:   {"remove instance of ", " from ", ""},
	SetInstanceShare: {"set instance of ", " on ", " share "},
}

// appendText appends String's text to b.
func (a Action) appendText(b []byte) []byte {
	if a.Kind < StartJob || a.Kind > SetInstanceShare {
		return strconv.AppendUint(append(b, "action of kind "...), uint64(a.Kind), 10)
	}
	t := actionText[a.Kind]
	b = append(b, t.head...)
	if a.Kind <= SetJobShare { // the job kinds come first
		b = append(b, a.Job...)
	} else {
		b = append(b, a.App...)
	}
	if t.node != "" {
		b = append(append(b, t.node...), a.Node...)
	}
	if t.share != "" {
		b = a.Share.Append(append(b, t.share...))
	}
	return b
}

// Plan is a controller's output: actions plus the predictions the
// experiment harness records (they become the paper's figure series).
type Plan struct {
	Actions []Action

	// HypotheticalJobUtility is the mean predicted utility across
	// incomplete jobs under the equalized allocation — the
	// "average hypothetical utility for the long-running workload"
	// plotted in the paper's Figure 1.
	HypotheticalJobUtility float64
	// ClassHypoUtility breaks the hypothetical utility down by job
	// class (used by the service-differentiation figures).
	ClassHypoUtility map[string]float64
	// EqualizedUtility is the max-min utility level of the equalization.
	EqualizedUtility float64
	// AppPrediction maps each application to its predicted utility.
	AppPrediction map[trans.AppID]float64

	// JobDemand is the CPU that would satisfy every job fully
	// (Figure 2's "long running demand").
	JobDemand res.CPU
	// AppDemand is, per application, the CPU for maximum utility
	// (Figure 2's "transactional demand").
	AppDemand map[trans.AppID]res.CPU
	// JobTarget / AppTarget are the equalized (satisfied) allocations
	// (Figure 2's "satisfied demand" series).
	JobTarget res.CPU
	AppTarget map[trans.AppID]res.CPU
}

// Controller plans placements from state snapshots. Implementations
// must be deterministic: identical states yield identical plans.
type Controller interface {
	Name() string
	// Plan plans st, which the caller must not change afterwards (see
	// State). The returned plan is shared and read-only: a controller
	// may keep it, and return it again for an identical snapshot.
	Plan(st *State) *Plan
}

// Count returns how many of the plan's actions are of the given kind —
// used by churn metrics and tests.
func (p *Plan) Count(kind ActionKind) int {
	n := 0
	for _, a := range p.Actions {
		if a.Kind == kind {
			n++
		}
	}
	return n
}
