package core

import (
	"slices"
	"sort"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/trans"
)

// webInst ranks one current instance for the keep decision.
type webInst struct {
	node  cluster.NodeID
	share res.CPU
}

// phaseWebPlacement decides instance presence and the reserved web
// share per node, emitting Add/Remove actions (their final shares are
// settled by the emit phase). Candidate nodes for new instances come
// from the webPickIndex (index.go) — a free-memory-ordered heap
// maintained across the whole phase — instead of rebuilding and
// re-sorting a candidate slice per application.
func (c *PlacementController) phaseWebPlacement(ctx *planContext) {
	st, plan, ledgers := ctx.st, ctx.plan, ctx.ledgers
	nodeCount := len(ledgers.Order())
	sc := ctx.scratch
	cands := &sc.webIdx
	cands.build(ledgers)
	defer cands.detach(ledgers)
	if sc.hasInst == nil {
		sc.hasInst = make(map[cluster.NodeID]bool)
	}

	// Rank every app's current instances, highest-share first, and hold
	// the memory of the ones each app keeps in pending (by Ledger.pos)
	// until that app's turn books it: no app adds an instance into room
	// a later app's kept instance occupies. The rankings stay in scratch
	// for the second pass.
	current, at := sc.webCur[:0], append(sc.webAt[:0], 0)
	pending := grow(sc.webPending, nodeCount)
	clear(pending)
	for ai := range st.Apps {
		app := &st.Apps[ai]
		from := len(current)
		for n, s := range app.Instances {
			if _, ok := ledgers.Get(n); !ok {
				continue // node offline; instance is already gone
			}
			current = append(current, webInst{n, s})
		}
		ranked := current[from:]
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].share != ranked[j].share {
				return ranked[i].share > ranked[j].share
			}
			return ranked[i].node < ranked[j].node
		})
		at = append(at, len(current))
		needed := neededInstances(app, ctx.appTarget[app.ID], nodeCount)
		for k, in := range ranked {
			if k >= needed {
				break
			}
			l, _ := ledgers.Get(in.node)
			pending[l.pos] += app.InstanceMem
		}
	}
	sc.webCur, sc.webAt, sc.webPending = current, at, pending

	for ai := range st.Apps {
		app := &st.Apps[ai]
		target := ctx.appTarget[app.ID]

		// Desired instance count (shared with the webClean check in
		// incremental.go).
		needed := neededInstances(app, target, nodeCount)

		// Keep current instances, highest-share first.
		kept := sc.webKept[:0]
		if cap(kept) < needed {
			kept = make([]cluster.NodeID, 0, needed)
		}
		for _, in := range current[at[ai]:at[ai+1]] {
			if len(kept) < needed {
				kept = append(kept, in.node)
			} else {
				plan.Actions = append(plan.Actions, Action{Kind: RemoveInstance, App: app.ID, Node: in.node})
			}
		}
		// Account kept instances' memory (they are resident already, so
		// this mirrors reality rather than reserving anew — the ledger
		// starts empty for web, unlike for running jobs, so add it).
		for _, n := range kept {
			l, _ := ledgers.Get(n)
			pending[l.pos] -= app.InstanceMem
			l.BookMem(app.InstanceMem)
		}
		// Add instances on the emptiest feasible nodes: pop candidates
		// best-first, skipping nodes that already host an instance or
		// whose room is pending for other apps' kept instances, and stop
		// at the first top without the room (it is the free-memory
		// maximum, so nothing below it fits either).
		if len(kept) < needed {
			clear(sc.hasInst)
			for _, n := range kept {
				sc.hasInst[n] = true
			}
			popped := sc.webPopped[:0]
			for len(kept) < needed {
				top := cands.peek()
				if top == nil || top.FreeMem() < app.InstanceMem {
					break
				}
				cands.popTop()
				popped = append(popped, top)
				if sc.hasInst[top.Info.ID] || top.FreeMem()-pending[top.pos] < app.InstanceMem {
					continue
				}
				kept = append(kept, top.Info.ID)
				top.BookMem(app.InstanceMem)
				plan.Actions = append(plan.Actions, Action{Kind: AddInstance, App: app.ID, Node: top.Info.ID})
			}
			for _, l := range popped {
				cands.push(l)
			}
			sc.webPopped = popped[:0]
		}
		sc.webKept = kept
		if len(kept) == 0 {
			plan.AppTarget[app.ID] = 0
			continue
		}
		// Equal split of the target, capped per instance.
		per := res.Min(target/res.CPU(len(kept)), app.MaxPerInstance)
		for _, n := range kept {
			l, _ := ledgers.Get(n)
			share := res.Min(per, l.Info.CPU)
			l.WebShare += share
			l.WebApps[app.ID] += share
		}
	}
}

// spreadWebSurplus gives a node's leftover CPU to its web instances,
// proportionally to their planned shares, capped per instance and by
// each app's remaining useful demand.
func (c *PlacementController) spreadWebSurplus(ctx *planContext, l *Ledger, surplus res.CPU, appAlloc map[trans.AppID]res.CPU) {
	st, plan := ctx.st, ctx.plan
	// Deterministic app order (recycled scratch: one call per node).
	sc := ctx.scratch
	ids := sc.webIDs[:0]
	for id := range l.WebApps {
		ids = append(ids, id)
	}
	sc.webIDs = ids
	slices.Sort(ids)
	var totalShare res.CPU
	for _, id := range ids {
		totalShare += l.WebApps[id]
	}
	for _, id := range ids {
		if surplus <= 0 {
			break
		}
		var instCap res.CPU
		if app := st.AppByID(id); app != nil {
			instCap = app.MaxPerInstance
		}
		cur := l.WebApps[id]
		frac := res.CPU(1)
		if totalShare > 0 {
			frac = cur / totalShare
		} else {
			frac = res.CPU(1) / res.CPU(len(ids))
		}
		grant := res.Min(surplus*frac, instCap-cur)
		if gap := plan.AppDemand[id] - appAlloc[id]; grant > gap {
			grant = gap
		}
		if grant < 0 {
			grant = 0
		}
		l.WebApps[id] = cur + grant
		l.WebShare += grant
		appAlloc[id] += grant
		surplus -= grant
	}
}
