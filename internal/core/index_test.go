package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// idxNodes builds n nodes with distinct IDs in order n000, n001, ...
func idxNodes(n int) []NodeInfo {
	out := make([]NodeInfo, n)
	for i := range out {
		out[i] = NodeInfo{ID: cluster.NodeID(fmt.Sprintf("n%03d", i)), CPU: 18000, Mem: 16000}
	}
	return out
}

// TestPickNodeTieBreaks pins the selection criterion the job index must
// reproduce: feasible memory first, then fewest planned jobs, then most
// free memory, then node order. Every case is checked against both the
// reference scan and the index.
func TestPickNodeTieBreaks(t *testing.T) {
	type nodeState struct {
		jobs int        // planned jobs on the node
		used res.Memory // memory already booked
	}
	cases := []struct {
		name  string
		nodes []nodeState
		mem   res.Memory
		want  cluster.NodeID // "" = nothing fits
	}{
		{
			name:  "infeasible-nodes-skipped",
			nodes: []nodeState{{jobs: 0, used: 14000}, {jobs: 5, used: 2000}},
			mem:   5000,
			want:  "n001", // n000 has fewer jobs but cannot fit the job
		},
		{
			name:  "fewest-jobs-beats-more-free",
			nodes: []nodeState{{jobs: 2, used: 0}, {jobs: 1, used: 8000}},
			mem:   5000,
			want:  "n001", // 1 job beats 2 jobs despite half the free memory
		},
		{
			name:  "job-count-tie-most-free-wins",
			nodes: []nodeState{{jobs: 1, used: 8000}, {jobs: 1, used: 2000}},
			mem:   5000,
			want:  "n001",
		},
		{
			name:  "full-tie-node-order-wins",
			nodes: []nodeState{{jobs: 1, used: 4000}, {jobs: 1, used: 4000}},
			mem:   5000,
			want:  "n000",
		},
		{
			name:  "nothing-fits",
			nodes: []nodeState{{jobs: 0, used: 13000}, {jobs: 0, used: 12000}},
			mem:   5000,
			want:  "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ls := NewLedgers(idxNodes(len(tc.nodes)))
			for i, nst := range tc.nodes {
				l, _ := ls.Get(cluster.NodeID(fmt.Sprintf("n%03d", i)))
				l.MemUsed = nst.used
				for j := 0; j < nst.jobs; j++ {
					l.Jobs = append(l.Jobs, &PlannedJob{})
				}
			}
			pj := &PlannedJob{Info: JobInfo{Mem: tc.mem}}
			if got := pickNodeScan(pj, ls, ls.Order()); got != tc.want {
				t.Errorf("scan picked %q, want %q", got, tc.want)
			}
			ix := &jobPickIndex{}
			ix.build(ls)
			defer ix.detach(ls)
			var got cluster.NodeID
			if l := ix.pick(tc.mem); l != nil {
				got = l.Info.ID
			}
			if got != tc.want {
				t.Errorf("index picked %q, want %q", got, tc.want)
			}
		})
	}
}

// TestJobPickIndexMatchesScan drives the index through a long random
// mutation sequence — the hooked Ledger methods, exactly as the
// placement phase uses them — and checks after every step that the
// index and the reference scan select the same node for a sweep of
// memory footprints.
func TestJobPickIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ls := NewLedgers(idxNodes(12))
	order := ls.Order()
	ix := &jobPickIndex{}
	ix.build(ls)
	defer ix.detach(ls)

	var records []*PlannedJob // records currently on some ledger
	onNode := map[*PlannedJob]*Ledger{}
	check := func(step int) {
		t.Helper()
		for _, mem := range []res.Memory{0, 1000, 5000, 9000, 16000, 17000} {
			pj := &PlannedJob{Info: JobInfo{Mem: mem}}
			want := pickNodeScan(pj, ls, order)
			var got cluster.NodeID
			if l := ix.pick(mem); l != nil {
				got = l.Info.ID
			}
			if got != want {
				t.Fatalf("step %d mem %v: index picked %q, scan %q", step, mem, got, want)
			}
		}
	}
	check(-1)
	for step := 0; step < 500; step++ {
		l, _ := ls.Get(order[rng.Intn(len(order))])
		switch rng.Intn(5) {
		case 0: // place a new job
			pj := &PlannedJob{Info: JobInfo{Mem: res.Memory(rng.Intn(4000) + 1000)}}
			if l.FreeMem() >= pj.Info.Mem {
				l.AddJob(pj)
				records = append(records, pj)
				onNode[pj] = l
			}
		case 1: // record a kept running job (residency pre-booked)
			pj := &PlannedJob{Info: JobInfo{Mem: res.Memory(rng.Intn(4000) + 1000)}}
			if l.FreeMem() >= pj.Info.Mem {
				l.Occupy(pj.Info)
				l.AppendJob(pj)
				records = append(records, pj)
				onNode[pj] = l
			}
		case 2: // evict: release residency without a record
			j := JobInfo{Mem: res.Memory(rng.Intn(3000))}
			if l.MemUsed >= j.Mem {
				l.Occupy(j)
				l.Release(j)
			}
		case 3: // migrate a record between ledgers
			if len(records) > 0 {
				pj := records[rng.Intn(len(records))]
				src := onNode[pj]
				dst := l
				if dst.FreeMem() >= pj.Info.Mem {
					src.RemoveJob(pj)
					dst.AddJob(pj)
					onNode[pj] = dst
				}
			}
		case 4: // book web instance memory
			if l.FreeMem() >= 1000 {
				l.BookMem(1000)
			}
		}
		check(step)
	}
}

// TestWebPickIndexMatchesSort checks that popping the web index yields
// candidates in exactly the order phaseWebPlacement used to build by
// sorting: most free memory first, ties by node ID.
func TestWebPickIndexMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		ls := NewLedgers(idxNodes(9))
		var want []cluster.NodeID
		ls.Each(func(l *Ledger) {
			l.MemUsed = res.Memory(rng.Intn(4) * 4000) // force ties
			want = append(want, l.Info.ID)
		})
		sort.SliceStable(want, func(i, j int) bool {
			li, _ := ls.Get(want[i])
			lj, _ := ls.Get(want[j])
			if li.FreeMem() != lj.FreeMem() {
				return li.FreeMem() > lj.FreeMem()
			}
			return want[i] < want[j]
		})
		ix := &webPickIndex{}
		ix.build(ls)
		for i, wantID := range want {
			top := ix.peek()
			if top == nil || top.Info.ID != wantID {
				t.Fatalf("trial %d pop %d: got %v, want %s", trial, i, top, wantID)
			}
			ix.popTop()
		}
		if ix.peek() != nil {
			t.Fatalf("trial %d: heap not drained", trial)
		}
		ix.detach(ls)
	}
}

// evictFixture builds a controller, a priority order and ledgers for
// eviction tests: the candidate at position 0, victims after it.
func evictFixture(t *testing.T, margin float64, victims []*PlannedJob) (*PlacementController, []*PlannedJob, *Ledgers, []int32) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.EvictionMargin = margin
	c := New(cfg)
	infos := make([]NodeInfo, 0, len(victims))
	seen := map[cluster.NodeID]bool{}
	for _, v := range victims {
		if !seen[v.Node] {
			infos = append(infos, NodeInfo{ID: v.Node, CPU: 18000, Mem: 16000})
			seen[v.Node] = true
		}
	}
	ls := NewLedgers(infos)
	for _, v := range victims {
		l, _ := ls.Get(v.Node)
		l.Occupy(v.Info)
	}
	// Fill every node to the brim so only an eviction can make room.
	ls.Each(func(l *Ledger) { l.MemUsed = l.Info.Mem })
	cand := &PlannedJob{Info: JobInfo{ID: "cand", State: batch.Pending, Mem: 5000}}
	order := append([]*PlannedJob{cand}, victims...)
	evictable := make([]int32, 0, len(victims))
	for p, pj := range order {
		if pj.Info.State == batch.Running && !pj.Suspend && !pj.Waiting {
			evictable = append(evictable, int32(p))
		}
	}
	return c, order, ls, evictable
}

// runningVictim builds an evictable running job record.
func runningVictim(id string, node cluster.NodeID, mem res.Memory, lax float64) *PlannedJob {
	pj := &PlannedJob{Info: JobInfo{
		ID: batch.JobID(id), State: batch.Running, Node: node, Mem: mem,
	}}
	pj.Node = node
	pj.lax = lax
	return pj
}

// TestEvictVictimHysteresisBoundary pins the eviction margin's exact
// boundary: at candLax == victimLax - EvictionMargin the suspension
// proceeds (the test is strictly greater-than); one ulp of laxity less
// urgency and it does not.
func TestEvictVictimHysteresisBoundary(t *testing.T) {
	const margin = 100.0
	t.Run("at-boundary-evicts", func(t *testing.T) {
		v := runningVictim("v", "a", 5000, 1000)
		c, order, ls, ev := evictFixture(t, margin, []*PlannedJob{v})
		order[0].lax = v.lax - margin // exactly at the boundary
		node := c.evictVictim(order[0], order, 0, &ev, ls)
		if node != "a" || !v.Suspend {
			t.Fatalf("boundary candidate did not evict: node=%q suspend=%v", node, v.Suspend)
		}
		if len(ev) != 0 {
			t.Errorf("suspended victim still listed evictable: %v", ev)
		}
	})
	t.Run("past-boundary-stops", func(t *testing.T) {
		v := runningVictim("v", "a", 5000, 1000)
		c, order, ls, ev := evictFixture(t, margin, []*PlannedJob{v})
		order[0].lax = v.lax - margin + 1e-9 // not urgent enough
		node := c.evictVictim(order[0], order, 0, &ev, ls)
		if node != "" || v.Suspend {
			t.Fatalf("insufficient urgency advantage still evicted: node=%q suspend=%v", node, v.Suspend)
		}
	})
}

// TestEvictVictimWalkOrder pins the walk semantics: victims are probed
// from the least urgent end of the priority order; memory-infeasible
// victims are skipped, and the first probe inside the hysteresis band
// ends the walk even when a more urgent victim deeper in would fit.
func TestEvictVictimWalkOrder(t *testing.T) {
	t.Run("least-urgent-first", func(t *testing.T) {
		v1 := runningVictim("v1", "a", 5000, 2000)
		v2 := runningVictim("v2", "b", 5000, 3000) // most lax, probed first
		c, order, ls, ev := evictFixture(t, 0, []*PlannedJob{v1, v2})
		order[0].lax = 100
		if node := c.evictVictim(order[0], order, 0, &ev, ls); node != "b" {
			t.Fatalf("evicted from %q, want b (least urgent victim)", node)
		}
		if v1.Suspend || !v2.Suspend {
			t.Errorf("suspend flags: v1=%v v2=%v, want only v2", v1.Suspend, v2.Suspend)
		}
	})
	t.Run("infeasible-victim-skipped", func(t *testing.T) {
		v1 := runningVictim("v1", "a", 5000, 2000)
		v2 := runningVictim("v2", "b", 1000, 3000) // freeing 1 GB is not enough
		c, order, ls, ev := evictFixture(t, 0, []*PlannedJob{v1, v2})
		order[0].lax = 100
		if node := c.evictVictim(order[0], order, 0, &ev, ls); node != "a" {
			t.Fatalf("evicted from %q, want a (v2 cannot make room)", node)
		}
	})
	t.Run("cutoff-stops-before-feasible-urgent-victim", func(t *testing.T) {
		v1 := runningVictim("v1", "a", 5000, 2000) // would fit, but walk never reaches it
		v2 := runningVictim("v2", "b", 5000, 3000)
		c, order, ls, ev := evictFixture(t, 0, []*PlannedJob{v1, v2})
		order[0].lax = 3500 // laxer than v2: stop at the first probe
		if node := c.evictVictim(order[0], order, 0, &ev, ls); node != "" {
			t.Fatalf("evicted from %q, want no eviction", node)
		}
	})
	t.Run("confirmed-positions-not-probed", func(t *testing.T) {
		// Victims at or before idx were already confirmed by the main
		// loop; the walk must ignore them.
		v1 := runningVictim("v1", "a", 5000, 2000)
		v2 := runningVictim("v2", "b", 5000, 3000)
		c, order, ls, ev := evictFixture(t, 0, []*PlannedJob{v1, v2})
		order[0].lax = 100
		if node := c.evictVictim(order[0], order, 2, &ev, ls); node != "" {
			t.Fatalf("evicted from %q, want none (all victims confirmed)", node)
		}
	})
}

// pickNodeScan is the reference node selection: feasible memory,
// fewest planned jobs (count balance), then most free memory, then
// node order. Returns "" when nothing fits. The placement phase uses
// the equivalent jobPickIndex; the scan is the oracle the index
// equivalence tests compare against.
func pickNodeScan(pj *PlannedJob, ledgers *Ledgers, nodeOrder []cluster.NodeID) cluster.NodeID {
	var best cluster.NodeID
	bestJobs := math.MaxInt
	var bestFree res.Memory = -1
	for _, n := range nodeOrder {
		l, _ := ledgers.Get(n)
		if l.FreeMem() < pj.Info.Mem {
			continue
		}
		nj := len(l.Jobs)
		free := l.FreeMem()
		if nj < bestJobs || (nj == bestJobs && free > bestFree) {
			best, bestJobs, bestFree = n, nj, free
		}
	}
	return best
}

// refJobPlacement is the pre-index job-placement phase, kept verbatim
// as the reference the indexed phase is differenced against: linear
// pickNodeScan per job and the full priority-tail walk per eviction.
func refJobPlacement(c *PlacementController, ctx *planContext) {
	st, ledgers := ctx.st, ctx.ledgers
	nodeOrder := ledgers.Order()
	ctx.order = append(ctx.order[:0], ctx.planned...)
	order := ctx.order
	sort.SliceStable(order, func(i, j int) bool { return jobLess(order[i], order[j]) })

	refEvict := func(pj *PlannedJob, rest []*PlannedJob) cluster.NodeID {
		candLax := pj.Info.Laxity(st.Now)
		for i := len(rest) - 1; i >= 0; i-- {
			victim := rest[i]
			if victim.Info.State != batch.Running || victim.Suspend || victim.Waiting {
				continue
			}
			if candLax > victim.Info.Laxity(st.Now)-c.cfg.EvictionMargin {
				return ""
			}
			l, _ := ledgers.Get(victim.Node)
			if l.FreeMem()+victim.Info.Mem < pj.Info.Mem {
				continue
			}
			victim.Suspend = true
			l.Release(victim.Info)
			return victim.Node
		}
		return ""
	}

	for idx, pj := range order {
		switch {
		case pj.Suspend, pj.Waiting:
			continue
		case pj.Info.State == batch.Running && (c.cfg.ChurnAware || pj.Info.Migrating):
			l, _ := ledgers.Get(pj.Node)
			l.AppendJob(pj)
		case pj.Info.State == batch.Running:
			src, _ := ledgers.Get(pj.Node)
			src.Release(pj.Info)
			node := pickNodeScan(pj, ledgers, nodeOrder)
			if node == "" || node == pj.Info.Node {
				node = pj.Info.Node
			} else {
				pj.Migrate = true
			}
			pj.Node = node
			l, _ := ledgers.Get(node)
			l.AddJob(pj)
		default:
			node := pickNodeScan(pj, ledgers, nodeOrder)
			if node == "" {
				node = refEvict(pj, order[idx+1:])
			}
			if node == "" {
				pj.Waiting = true
				continue
			}
			l, _ := ledgers.Get(node)
			l.AddJob(pj)
			pj.Node = node
			pj.PlacedNew = true
		}
	}
}

// TestPhaseJobPlacementMatchesScanReference replays randomized
// placement phases against the scan-based reference implementation of
// the same loop and requires identical per-record outcomes and books —
// the index-equivalence proof at phase granularity.
func TestPhaseJobPlacementMatchesScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		st := randomPlannerState(rng)
		cfg := DefaultConfig()
		cfg.ChurnAware = rng.Intn(4) > 0 // exercise the oblivious re-pick too
		cfg.EvictionMargin = float64(rng.Intn(3)) * 400
		run := func(phase func(*PlacementController, *planContext)) *planContext {
			c := New(cfg)
			ctx := newPlanContext(st)
			c.phaseTargets(ctx)
			c.phaseWebPlacement(ctx)
			phase(c, ctx)
			return ctx
		}
		got := run(func(c *PlacementController, ctx *planContext) { c.phaseJobPlacement(ctx) })
		want := run(refJobPlacement)

		for i := range want.planned {
			w, g := want.planned[i], got.planned[i]
			if w.Node != g.Node || w.Suspend != g.Suspend || w.Waiting != g.Waiting ||
				w.PlacedNew != g.PlacedNew || w.Migrate != g.Migrate {
				t.Fatalf("trial %d job %s: indexed {node %q s%v w%v p%v m%v} vs reference {node %q s%v w%v p%v m%v}",
					trial, w.Info.ID,
					g.Node, g.Suspend, g.Waiting, g.PlacedNew, g.Migrate,
					w.Node, w.Suspend, w.Waiting, w.PlacedNew, w.Migrate)
			}
		}
		want.ledgers.Each(func(wl *Ledger) {
			gl, _ := got.ledgers.Get(wl.Info.ID)
			if wl.MemUsed != gl.MemUsed || wl.JobCount != gl.JobCount || len(wl.Jobs) != len(gl.Jobs) {
				t.Fatalf("trial %d node %s: indexed books (mem %v jobs %d/%d) diverge from reference (mem %v jobs %d/%d)",
					trial, wl.Info.ID,
					gl.MemUsed, gl.JobCount, len(gl.Jobs),
					wl.MemUsed, wl.JobCount, len(wl.Jobs))
			}
		})
	}
}

// refRebalance is the scan-per-candidate rebalance phase, kept
// verbatim as the reference the headroom-cached phase is differenced
// against: every candidate scans every node through the ID map and
// re-sums each node's job shares.
func refRebalance(c *PlacementController, ctx *planContext) {
	if c.cfg.MaxMigrationsPerCycle <= 0 {
		return
	}
	ledgers, nodeOrder := ctx.ledgers, ctx.ledgers.Order()
	migrations := 0
	cands := make([]*PlannedJob, 0, len(ctx.planned))
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
	sort.SliceStable(cands, func(i, j int) bool {
		ri := float64(cands[i].Share) / float64(res.Min(cands[i].Target, cands[i].Info.MaxSpeed))
		rj := float64(cands[j].Share) / float64(res.Min(cands[j].Target, cands[j].Info.MaxSpeed))
		if ri != rj {
			return ri < rj
		}
		return cands[i].Info.ID < cands[j].Info.ID
	})
	for _, pj := range cands {
		if migrations >= c.cfg.MaxMigrationsPerCycle {
			break
		}
		var best cluster.NodeID
		var bestShare res.CPU
		for _, n := range nodeOrder {
			if n == pj.Node {
				continue
			}
			l, _ := ledgers.Get(n)
			if l.FreeMem() < pj.Info.Mem {
				continue
			}
			avail := l.FreeCPU()
			var jobsShare res.CPU
			for _, other := range l.Jobs {
				jobsShare += other.Share
			}
			projected := res.Min(avail-jobsShare, pj.Info.MaxSpeed)
			if projected > bestShare {
				best, bestShare = n, projected
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
	}
}

// starvingState builds a cluster of at least 50 nodes where hot nodes
// each host one web instance that reserves most of the node's CPU
// next to several running jobs, which therefore starve; the other nodes
// carry a random mix of running jobs of assorted memory sizes (some
// full, some idle) and a pending backlog competes for the rest.
func starvingState(t *testing.T, rng *rand.Rand, hot int) *State {
	n := 50 + rng.Intn(31)
	st := &State{Now: 5000, Nodes: idxNodes(n)}
	mems := []res.Memory{1000, 2500, 5000, 8000}
	id := 0
	addJob := func(state batch.State, node cluster.NodeID, share res.CPU) {
		j := jobMem(fmt.Sprintf("j%04d", id), state, node, mems[rng.Intn(len(mems))],
			res.Work(4500*float64(2000+rng.Intn(20000))),
			st.Now+float64(5000+rng.Intn(40000)), float64(rng.Intn(5000)))
		j.Share = share
		// Speed caps from one to three gains above a starved share put
		// the skip bound right at the gain test.
		j.MaxSpeed = res.CPU(1500 + rng.Intn(3001))
		st.Jobs = append(st.Jobs, j)
		id++
	}
	for _, h := range rng.Perm(n)[:hot] {
		node := st.Nodes[h].ID
		app := webApp(t, fmt.Sprintf("web%03d", h), 9+2*rng.Float64(), map[cluster.NodeID]res.CPU{node: 15000})
		// A per-instance cap below the node leaves the jobs beside it a
		// sliver of CPU, so they starve at positive shares.
		app.MinInstances, app.MaxInstances = 1, 1
		app.MaxPerInstance = res.CPU(14000 + rng.Intn(3000))
		st.Apps = append(st.Apps, app)
		for k := 2 + rng.Intn(3); k > 0; k-- {
			addJob(batch.Running, node, 1000)
		}
	}
	for _, nd := range st.Nodes {
		for k := rng.Intn(4); k > 0; k-- {
			addJob(batch.Running, nd.ID, res.CPU(1+rng.Intn(4500)))
		}
	}
	for k := rng.Intn(n); k > 0; k-- {
		addJob(batch.Pending, "", 0)
	}
	return st
}

// TestPhaseRebalanceMatchesScanReference runs the whole pipeline twice
// per state, once with the rebalance phase and once with the scan
// reference in its place, and requires equal plan digests; the
// controller's arena-backed Plan must agree too. Hot-node rows must
// migrate, and the uncapped rows more than once per plan, so the
// headroom refresh after a migration is exercised.
func TestPhaseRebalanceMatchesScanReference(t *testing.T) {
	for _, maxMig := range []int{1, 5, 50} {
		for _, hot := range []int{0, 3, 12} {
			rng := rand.New(rand.NewSource(int64(100*maxMig + hot)))
			migrated, most := 0, 0
			for trial := 0; trial < 8; trial++ {
				st := starvingState(t, rng, hot)
				cfg := DefaultConfig()
				cfg.MaxMigrationsPerCycle = maxMig
				c := New(cfg)
				run := func(rebalance func(*PlacementController, *planContext)) *Plan {
					ctx := newPlanContext(st)
					for _, ph := range c.Pipeline() {
						if ph.Name == "rebalance" {
							rebalance(c, ctx)
						} else {
							ph.Run(ctx)
						}
					}
					return ctx.plan
				}
				want := run(refRebalance)
				got := run((*PlacementController).phaseRebalance)
				if g, w := got.Digest(), want.Digest(); g != w {
					t.Fatalf("cap %d hot %d trial %d: digest %s, reference %s\ngot  %v\nwant %v",
						maxMig, hot, trial, g, w, got.Actions, want.Actions)
				}
				if g, w := c.Plan(st).Digest(), want.Digest(); g != w {
					t.Fatalf("cap %d hot %d trial %d: Plan digest %s, reference %s", maxMig, hot, trial, g, w)
				}
				_, _, _, migs, _, _, _, _ := want.CountActions()
				migrated += migs
				most = max(most, migs)
			}
			switch {
			case hot > 0 && migrated == 0:
				t.Errorf("cap %d hot %d: no migration in any trial", maxMig, hot)
			case hot > 0 && maxMig > 1 && most < 2:
				t.Errorf("cap %d hot %d: at most %d migration per plan, want a plan with several", maxMig, hot, most)
			}
			t.Logf("cap %d hot %d: %d migrations, at most %d per plan", maxMig, hot, migrated, most)
		}
	}
}
