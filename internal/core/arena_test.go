package core

import (
	"math"
	"math/rand"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/utility"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// Plan scratch is shared by every controller in the process: a pass
// borrows an arena from the free list that another cluster, of another
// shape, planned with last. These tests pin that nothing of that
// earlier pass can leak into a plan.

// fillCap sets every slot of s up to its capacity to v: grow reslices
// into stale tails, so those are poisoned too.
func fillCap[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// poisonFreeArenas overwrites every free arena's slabs with sentinel
// garbage: NaN floats, bogus IDs, out-of-range indices and a bogus
// ledger, and stale map entries under the given real node and app IDs.
// A pass that read anything it had not written first would turn the
// garbage into a different plan (or a panic). It returns the number of
// arenas poisoned.
func poisonFreeArenas(nodeIDs []cluster.NodeID, appIDs []trans.AppID) int {
	nan := math.NaN()
	bogusLedger := &Ledger{
		Info:    NodeInfo{ID: "bogus", CPU: res.CPU(nan), Mem: -1},
		MemUsed: -1, WebShare: res.CPU(nan), pos: math.MaxInt32,
		heapPos: -5, bucket: -5,
	}
	bogusJob := &PlannedJob{
		Info: JobInfo{
			ID: "bogus", Class: "bogus", State: batch.Running, Node: "bogus",
			Share: res.CPU(nan), Migrating: true, Remaining: res.Work(nan),
			MaxSpeed: res.CPU(nan), Mem: -1, Goal: nan, Submitted: nan,
		},
		Target: res.CPU(nan), Node: "bogus", Share: res.CPU(nan),
		PlacedNew: true, Migrate: true, Suspend: true, Waiting: true,
		idx: math.MinInt32, lax: nan,
	}
	bogusCurve := utility.NewJobCurve("bogus", nan, 1, 1, nan, nil)
	rng := rand.New(rand.NewSource(99))

	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	for _, a := range arenas.free {
		fillCap(a.records, *bogusJob)
		fillCap(a.planned, bogusJob)
		fillCap(a.order, bogusJob)
		fillCap(a.appCurves, utility.Curve(bogusCurve))
		fillCap(a.curves, utility.Curve(bogusCurve))
		slab := a.jobCurveSlab[:cap(a.jobCurveSlab)]
		for i := range slab {
			slab[i].Fill("bogus", nan, 1, 1, nan, nil)
		}
		// The equalizer's scratch is opaque here: fill it by solving a
		// larger, unrelated problem in it.
		garbage := make([]utility.Curve, cap(a.curves)+16)
		for i := range garbage {
			garbage[i] = utility.NewJobCurve("garbage", 0, res.Work(1+rng.Float64()*1e7),
				res.CPU(1+rng.Float64()*9000), rng.Float64()*5000, nil)
		}
		utility.EqualizeWith(&a.eqScratch, garbage, 12345, rng.Float64())
		if a.appTarget == nil {
			a.appTarget = map[trans.AppID]res.CPU{}
		}
		a.appTarget["bogus"] = res.CPU(nan)
		for _, id := range appIDs {
			a.appTarget[id] = res.CPU(nan)
		}

		sc := &a.scratch
		for _, b := range sc.pickIdx.buckets[:cap(sc.pickIdx.buckets)] {
			fillCap(b, bogusLedger)
		}
		sc.pickIdx.lo = math.MaxInt32
		fillCap(sc.webIdx.h, bogusLedger)
		fillCap(sc.evictable, math.MinInt32)
		fillCap(sc.webCur, webInst{node: "bogus", share: res.CPU(nan)})
		fillCap(sc.webKept, "bogus")
		fillCap(sc.webPopped, bogusLedger)
		if sc.hasInst == nil {
			sc.hasInst = map[cluster.NodeID]bool{}
		}
		sc.hasInst["bogus"] = true
		for _, id := range nodeIDs {
			sc.hasInst[id] = true
		}
		fillCap(sc.wfShares, res.CPU(nan))
		fillCap(sc.wfActive, math.MinInt32)
		fillCap(sc.wfNext, math.MaxInt32)
		fillCap(sc.webIDs, "bogus")
		fillCap(sc.rebCands, bogusJob)
		fillCap(sc.heads, res.CPU(nan))
		fillCap(sc.instNodes, "bogus")
		fillCap(sc.instAt, math.MinInt32)
		fillCap(sc.classes, classSum{class: "bogus", sum: nan, n: -1})
		fillCap(sc.orderKeys, jobKey{key: 1, pj: bogusJob})
		fillCap(sc.orderTmp, jobKey{key: 0, pj: bogusJob})
	}
	return len(arenas.free)
}

// crossClusterSeqs builds snapshot sequences for three clusters of
// different shapes, each meant to exercise different tiers:
//
//	steady    4 nodes, 14 jobs, 1 app: demand drift only (carry-over)
//	random    2–5 nodes, 4–15 jobs, 0–2 apps: arbitrary drift (full)
//	starving  50–80 nodes, ~150–300 jobs, up to 12 apps (full, with
//	          migrations)
//
// Every third snapshot repeats its predecessor (replay). The snapshots
// are deep copies: planning one cannot change another.
func crossClusterSeqs(t *testing.T, cycles int) [][]*State {
	t.Helper()
	rng := rand.New(rand.NewSource(45))
	steady := steadyTestState(t, 4, 6)
	random := randomPlannerState(rng)
	starving := starvingState(t, rng, 12)
	drift := []func(st *State, cycle int){
		func(st *State, cycle int) {
			st.Now += 600
			st.Apps[0].Lambda = 65 + float64(cycle%3)
			for i := range st.Jobs {
				if st.Jobs[i].State == batch.Running {
					st.Jobs[i].Remaining -= res.Work(4500 * 600)
				}
			}
		},
		func(st *State, _ int) { mutatePlannerState(rng, st) },
		func(st *State, _ int) { mutatePlannerState(rng, st) },
	}
	seqs := make([][]*State, 3)
	for k, st := range []*State{steady, random, starving} {
		for cycle := 0; cycle < cycles; cycle++ {
			if cycle%3 != 2 {
				drift[k](st, cycle)
			}
			seqs[k] = append(seqs[k], cloneStateDeep(st))
		}
	}
	return seqs
}

// seqIDs lists every node and app ID the sequences use, so poisoning
// can plant stale map entries under real keys.
func seqIDs(seqs [][]*State) ([]cluster.NodeID, []trans.AppID) {
	var nodeIDs []cluster.NodeID
	var appIDs []trans.AppID
	for _, seq := range seqs {
		for _, st := range seq {
			for _, n := range st.Nodes {
				nodeIDs = append(nodeIDs, n.ID)
			}
			for _, a := range st.Apps {
				appIDs = append(appIDs, a.ID)
			}
		}
	}
	return nodeIDs, appIDs
}

// TestCrossClusterPlansBitIdentical interleaves the plans of three
// clusters of different shapes in a random order, poisoning every free
// arena before each plan, and requires every cluster's digest sequence
// to equal that cluster planned alone on a fresh controller.
func TestCrossClusterPlansBitIdentical(t *testing.T) {
	const cycles = 12
	seqs := crossClusterSeqs(t, cycles)
	nodeIDs, appIDs := seqIDs(seqs)

	want := make([][]string, len(seqs))
	for k, seq := range seqs {
		c := New(DefaultConfig())
		for _, st := range seq {
			want[k] = append(want[k], c.Plan(cloneStateDeep(st)).Digest())
		}
	}

	ctrls := make([]*PlacementController, len(seqs))
	for k := range ctrls {
		ctrls[k] = New(DefaultConfig())
	}
	next := make([]int, len(seqs))
	rng := rand.New(rand.NewSource(7))
	for left := len(seqs) * cycles; left > 0; left-- {
		k := rng.Intn(len(seqs))
		for next[k] == cycles {
			k = (k + 1) % len(seqs)
		}
		if poisonFreeArenas(nodeIDs, appIDs) == 0 {
			t.Fatal("no free arena to poison: the free list is not being used")
		}
		got := ctrls[k].Plan(cloneStateDeep(seqs[k][next[k]])).Digest()
		if got != want[k][next[k]] {
			t.Errorf("cluster %d cycle %d: interleaved plan differs from the cluster planned alone", k, next[k])
		}
		next[k]++
	}

	var total PlanStats
	for _, c := range ctrls {
		s := c.PlanStats()
		total.Full += s.Full
		total.Incremental += s.Incremental
		total.Replayed += s.Replayed
	}
	if total.Full == 0 || total.Incremental == 0 || total.Replayed == 0 {
		t.Errorf("tiers exercised %+v: want every tier at least once", total)
	}
}

// TestArenaFreeListReusesWarmArena pins the free list's LIFO order: a
// lone session gets back the arena it released, so a single-cluster
// workload keeps planning in one warm arena.
func TestArenaFreeListReusesWarmArena(t *testing.T) {
	a := acquireArena()
	a.release()
	b := acquireArena()
	defer b.release()
	if a != b {
		t.Fatal("acquire after release returned a different arena")
	}
}

// TestGrowAmortized pins the slab growth policy: a first allocation is
// exact (a cluster of constant size keeps the footprint it always had),
// a job count rising by one per cycle reallocates a logarithmic number
// of times, and a shrinking one never does.
func TestGrowAmortized(t *testing.T) {
	if c := cap(grow([]PlannedJob(nil), 5000)); c != 5000 {
		t.Errorf("first allocation of 5000 has capacity %d", c)
	}
	var s []PlannedJob
	reallocs := 0
	for n := 1; n <= 5000; n++ {
		old := cap(s)
		s = grow(s, n)
		if len(s) != n {
			t.Fatalf("grow(%d) has length %d", n, len(s))
		}
		if cap(s) != old {
			reallocs++
		}
	}
	if reallocs > 40 {
		t.Errorf("%d reallocations over 5000 rising job counts, want ≤ 40", reallocs)
	}
	if c := cap(s); cap(grow(s, 10)) != c {
		t.Error("grow reallocated to shrink")
	}
}
