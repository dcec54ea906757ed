package api

import "sync"

// Diff computes the typed action list that moves the previous plan's
// placement to this plan's placement, so a caller that enacted prev
// can enact the delta instead of re-reading the whole placement.
//
// Ordering mirrors the executor's two-phase discipline: resource-
// freeing actions first (suspends, instance removals), then placements
// (starts, resumes, migrations, instance additions), then share
// retunes. Within each group, actions follow the placements' sorted-ID
// order, so the diff is deterministic.
//
// Share comparisons are exact: the controller's plans are
// deterministic, so an unchanged assignment reproduces the identical
// bits and diffs to nothing.
//
// A nil prev diffs against the empty placement: every running job
// becomes a start and every instance an add — a bootstrap script for
// a caller with no enacted state.
func (p *Plan) Diff(prev *Plan) []Action {
	var prevJobs []JobPlacement
	var prevApps []AppPlacement
	if prev != nil {
		prevJobs = prev.Placement.Jobs
		prevApps = prev.Placement.Apps
	}
	// Placements from FromCorePlan list jobs in strictly increasing ID
	// order, so the previous entry of each job is found by walking the
	// two lists in step; a hand-built placement in any other order gets
	// the map.
	merge := jobsSorted(prevJobs) && jobsSorted(p.Placement.Jobs)
	var pj map[string]*JobPlacement
	if !merge {
		pj = make(map[string]*JobPlacement, len(prevJobs))
		for i := range prevJobs {
			pj[prevJobs[i].ID] = &prevJobs[i]
		}
	}
	pa := make(map[string]*AppPlacement, len(prevApps))
	for i := range prevApps {
		pa[prevApps[i].ID] = &prevApps[i]
	}

	// One pass collects the three groups in pooled lists; the result is
	// then allocated once, at its exact length.
	sc := diffScratches.Get().(*diffScratch)
	frees, places, shares := sc.frees[:0], sc.places[:0], sc.shares[:0]
	// Per-app instance indexes, recycled across apps.
	prevByNode := map[string]float64{}
	nowByNode := map[string]bool{}
	next := 0 // merge walk: first previous job not yet passed
	for i := range p.Placement.Jobs {
		job := &p.Placement.Jobs[i]
		was := pj[job.ID]
		if merge {
			for next < len(prevJobs) && prevJobs[next].ID < job.ID {
				next++
			}
			if next < len(prevJobs) && prevJobs[next].ID == job.ID {
				was = &prevJobs[next]
			}
		}
		switch {
		case job.State == JobRunning:
			switch {
			case was == nil || was.State == JobPending:
				places = append(places, Action{Type: ActionStartJob, Job: job.ID, Node: job.Node, ShareMHz: job.ShareMHz})
			case was.State == JobSuspended:
				places = append(places, Action{Type: ActionResumeJob, Job: job.ID, Node: job.Node, ShareMHz: job.ShareMHz})
			case was.Node != job.Node:
				places = append(places, Action{Type: ActionMigrateJob, Job: job.ID, Node: job.Node, ShareMHz: job.ShareMHz})
			case was.ShareMHz != job.ShareMHz:
				shares = append(shares, Action{Type: ActionSetJobShare, Job: job.ID, ShareMHz: job.ShareMHz})
			}
		case was != nil && was.State == JobRunning:
			frees = append(frees, Action{Type: ActionSuspendJob, Job: job.ID})
		}
	}
	for i := range p.Placement.Apps {
		app := &p.Placement.Apps[i]
		var wasInst []Instance
		if was := pa[app.ID]; was != nil {
			wasInst = was.Instances
		}
		clear(prevByNode)
		for _, in := range wasInst {
			prevByNode[in.Node] = in.ShareMHz
		}
		clear(nowByNode)
		for _, in := range app.Instances {
			nowByNode[in.Node] = true
			share, ok := prevByNode[in.Node]
			switch {
			case !ok:
				places = append(places, Action{Type: ActionAddInstance, App: app.ID, Node: in.Node, ShareMHz: in.ShareMHz})
			case share != in.ShareMHz:
				shares = append(shares, Action{Type: ActionSetInstanceShare, App: app.ID, Node: in.Node, ShareMHz: in.ShareMHz})
			}
		}
		for _, in := range wasInst {
			if !nowByNode[in.Node] {
				frees = append(frees, Action{Type: ActionRemoveInstance, App: app.ID, Node: in.Node})
			}
		}
	}
	// Applications that disappeared from the placement (undeployed)
	// still occupy nodes on the caller's side: free their instances.
	// Vanished jobs, by contrast, completed or were canceled — the
	// caller's runtime reclaims those without an action.
	nowApps := make(map[string]bool, len(p.Placement.Apps))
	for i := range p.Placement.Apps {
		nowApps[p.Placement.Apps[i].ID] = true
	}
	for i := range prevApps {
		was := &prevApps[i]
		if nowApps[was.ID] {
			continue
		}
		for _, in := range was.Instances {
			frees = append(frees, Action{Type: ActionRemoveInstance, App: was.ID, Node: in.Node})
		}
	}
	out := make([]Action, 0, len(frees)+len(places)+len(shares))
	out = append(append(append(out, frees...), places...), shares...)
	clear(frees)
	clear(places)
	clear(shares)
	sc.frees, sc.places, sc.shares = frees, places, shares
	diffScratches.Put(sc)
	return out
}

// diffScratch holds one Diff's action groups while it walks. Its lists
// are cleared before they go back to the pool, so a pooled list keeps
// no plan's IDs alive.
type diffScratch struct{ frees, places, shares []Action }

var diffScratches = sync.Pool{New: func() any { return new(diffScratch) }}

// jobsSorted reports whether the placement lists its jobs in strictly
// increasing ID order.
func jobsSorted(jobs []JobPlacement) bool {
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1].ID >= jobs[i].ID {
			return false
		}
	}
	return true
}
