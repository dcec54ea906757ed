package shard

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// reshardState is the hand-crafted scenario whose boundary arithmetic
// is known exactly: ten nodes whose weight profile puts K=3 boundaries
// at [0,3,4,10], with a demand injection on the last node that moves
// the second boundary while leaving the first — and with it shard 0's
// entire sub-snapshot — untouched.
//
// Weights: nodes n000-n002 at 16000 MB (n000 carries a 3000 MB running
// job), n003 at 64000 MB, n004-n009 at 8000 MB. Injecting four 8000 MB
// running jobs on n009 raises the old third shard's load to 80000
// against shard 0's 51000 (spread 1.569 > 1.5), and the recomputed
// boundaries land at [0,3,6,10].
func reshardState() *core.State {
	st := &core.State{Now: 1000}
	mems := []res.Memory{16000, 16000, 16000, 64000, 8000, 8000, 8000, 8000, 8000, 8000}
	for i, m := range mems {
		st.Nodes = append(st.Nodes, core.NodeInfo{
			ID: cluster.NodeID(fmt.Sprintf("n%03d", i)), CPU: 18000, Mem: m,
		})
	}
	j := testJob("r0", batch.Running, "n000", 3000, 4500*20000, 90000, 0)
	j.Share = 4500
	st.Jobs = append(st.Jobs, j)
	return st
}

// injectTailSkew adds the four running jobs on n009 that push the
// demand spread over the reshard threshold.
func injectTailSkew(st *core.State) {
	for i := 0; i < 4; i++ {
		j := testJob(fmt.Sprintf("skew%d", i), batch.Running, "n009", 8000,
			4500*20000, 90000, 10+float64(i))
		j.Share = 1000
		st.Jobs = append(st.Jobs, j)
	}
}

// perShardStats snapshots every inner controller's cumulative plan
// stats.
func perShardStats(c *Controller) []core.PlanStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.PlanStats, len(c.inner))
	for i, ctrl := range c.inner {
		if sp, ok := ctrl.(core.PlanStatsProvider); ok {
			out[i] = sp.PlanStats()
		}
	}
	return out
}

// TestReshardMovesBoundsAndPreservesUntouchedTiers is the core
// resharding contract: a demand-skew cycle migrates node blocks, and
// only the shards whose blocks moved lose their incremental state —
// the untouched shard replays byte-identically.
func TestReshardMovesBoundsAndPreservesUntouchedTiers(t *testing.T) {
	st := reshardState()
	ctrl := New(Config{Shards: 3})

	ctrl.Plan(cloneState(st)) // cycle 1: cold everywhere
	ctrl.Plan(cloneState(st)) // cycle 2: replay everywhere
	if d := ctrl.Diagnostics(); d.Reshards != 0 || d.LastResharded {
		t.Fatalf("reshard before any skew: %+v", d)
	}
	ctrl.mu.Lock()
	oldBounds := append([]int(nil), ctrl.scratch.bounds...)
	ctrl.mu.Unlock()
	if want := []int{0, 3, 4, 10}; fmt.Sprint(oldBounds) != fmt.Sprint(want) {
		t.Fatalf("initial bounds %v, want %v (scenario arithmetic drifted)", oldBounds, want)
	}
	before := perShardStats(ctrl)

	injectTailSkew(st)
	got := ctrl.Plan(cloneState(st)) // cycle 3: reshard

	d := ctrl.Diagnostics()
	if d.Reshards != 1 || !d.LastResharded {
		t.Fatalf("skew cycle did not reshard: %+v", d)
	}
	ctrl.mu.Lock()
	newBounds := append([]int(nil), ctrl.scratch.bounds...)
	ctrl.mu.Unlock()
	if want := []int{0, 3, 6, 10}; fmt.Sprint(newBounds) != fmt.Sprint(want) {
		t.Fatalf("post-reshard bounds %v, want %v", newBounds, want)
	}

	// Shard 0's block and contents are unchanged: it must have
	// replayed. Shards 1 and 2 got different node blocks: cold.
	after := perShardStats(ctrl)
	if len(after) != 3 || len(before) != 3 {
		t.Fatalf("expected 3 inner controllers, have %d/%d", len(before), len(after))
	}
	if delta := after[0].Replayed - before[0].Replayed; delta != 1 {
		t.Errorf("untouched shard 0 replayed %d times on the reshard cycle, want 1", delta)
	}
	if after[0].Full != before[0].Full {
		t.Errorf("untouched shard 0 planned from scratch on the reshard cycle")
	}
	for s := 1; s <= 2; s++ {
		// A touched shard's sub-snapshot changed, so it cannot replay;
		// whether it lands in the full or incremental tier is the inner
		// controller's business.
		if delta := after[s].Replayed - before[s].Replayed; delta != 0 {
			t.Errorf("touched shard %d replayed on the reshard cycle", s)
		}
		if delta := (after[s].Full + after[s].Incremental) - (before[s].Full + before[s].Incremental); delta != 1 {
			t.Errorf("touched shard %d planned %d non-replay cycles, want 1", s, delta)
		}
	}

	// Reshard equivalence: the migrated partition plans exactly like a
	// fresh K-partition re-plan of the same snapshot (the recomputed
	// boundaries depend only on the snapshot, and replay is
	// byte-identical to planning from scratch).
	want := New(Config{Shards: 3}).Plan(cloneState(st))
	if got.Digest() != want.Digest() {
		t.Errorf("reshard-cycle plan diverges from a fresh K-partition re-plan")
	}

	// Once balanced, the boundaries hold: the next identical cycle
	// replays on every shard and reshards nothing.
	ctrl.Plan(cloneState(st))
	if d := ctrl.Diagnostics(); d.Reshards != 1 || d.LastResharded {
		t.Errorf("balanced follow-up cycle resharded again: %+v", d)
	}
	if stats := ctrl.PlanStats(); stats.LastMode != core.PlanReplayed {
		t.Errorf("follow-up cycle mode %v, want replayed on every shard", stats.LastMode)
	}
}

// TestReshardSequenceEquivalence is the property form: across a drift
// sequence with reshards, the persistent controller's plan on every
// cycle matches a standalone partition whose scratch replayed the same
// history — and on reshard cycles it also matches a completely fresh
// controller (bounds freshly computed from the same snapshot).
func TestReshardSequenceEquivalence(t *testing.T) {
	st := reshardState()
	ctrl := New(Config{Shards: 3})
	for cycle := 0; cycle < 6; cycle++ {
		if cycle == 2 {
			injectTailSkew(st)
		}
		if cycle == 4 { // second skew wave: back toward the front
			for i := 0; i < 3; i++ {
				j := testJob(fmt.Sprintf("w2%d", i), batch.Running, "n003", 30000,
					4500*20000, 90000, 50+float64(i))
				j.Share = 1000
				st.Jobs = append(st.Jobs, j)
			}
		}
		got := ctrl.Plan(cloneState(st))
		if ctrl.Diagnostics().LastResharded {
			want := New(Config{Shards: 3}).Plan(cloneState(st))
			if got.Digest() != want.Digest() {
				t.Fatalf("cycle %d: reshard-cycle plan diverges from fresh re-plan", cycle)
			}
		}
	}
	if d := ctrl.Diagnostics(); d.Reshards < 1 {
		t.Fatalf("drift sequence never resharded: %+v", d)
	}
}

// TestBoundsExportRestore: a controller rebuilt from exported bounds
// plus a warm re-plan of the last snapshot is indistinguishable from
// the original — same partition, same reshard accounting, and a
// byte-identical plan sequence from then on. This is the sharded half
// of the session checkpoint/restore contract: boundaries are the one
// piece of partitioner state that is history-dependent (they persist
// across cycles), so they cross the checkpoint explicitly.
func TestBoundsExportRestore(t *testing.T) {
	st := reshardState()
	victim := New(Config{Shards: 3})
	victim.Plan(cloneState(st))
	victim.Plan(cloneState(st))
	injectTailSkew(st)
	last := victim.Plan(cloneState(st)) // reshard cycle: bounds now [0,3,6,10]

	bounds, reshards := victim.ExportBounds()
	if want := []int{0, 3, 6, 10}; fmt.Sprint(bounds) != fmt.Sprint(want) {
		t.Fatalf("exported bounds %v, want %v", bounds, want)
	}
	if reshards != 1 {
		t.Fatalf("exported reshards %d, want 1", reshards)
	}

	restored := New(Config{Shards: 3})
	if err := restored.RestoreBounds(bounds, reshards); err != nil {
		t.Fatal(err)
	}
	// Warm-up re-plan of the checkpointed snapshot: identical plan, and
	// the adoption neither recounts the reshard nor reports one.
	if got := restored.Plan(cloneState(st)); got.Digest() != last.Digest() {
		t.Fatalf("restored warm-up plan diverges from the checkpointed plan")
	}
	if d := restored.Diagnostics(); d.Reshards != 1 || d.LastResharded {
		t.Fatalf("restore warm-up miscounted reshards: %+v", d)
	}

	// Continuation: both controllers see the same further drift and stay
	// byte-identical, including the next reshard decision.
	for cycle := 0; cycle < 4; cycle++ {
		if cycle == 1 { // skew wave toward the front, as in the sequence test
			for i := 0; i < 3; i++ {
				j := testJob(fmt.Sprintf("w2%d", i), batch.Running, "n003", 30000,
					4500*20000, 90000, 50+float64(i))
				j.Share = 1000
				st.Jobs = append(st.Jobs, j)
			}
		}
		got := restored.Plan(cloneState(st))
		want := victim.Plan(cloneState(st))
		if got.Digest() != want.Digest() {
			t.Fatalf("cycle %d after restore: plans diverge", cycle)
		}
		dg, dw := restored.Diagnostics(), victim.Diagnostics()
		if dg.Reshards != dw.Reshards || dg.LastResharded != dw.LastResharded {
			t.Fatalf("cycle %d after restore: reshard accounting diverges: %+v vs %+v", cycle, dg, dw)
		}
	}

	// Ill-fitting bounds are discarded: the first split computes fresh
	// boundaries and plans exactly like an unrestored controller.
	misfit := New(Config{Shards: 3})
	if err := misfit.RestoreBounds([]int{0, 5}, 7); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{Shards: 3})
	if misfit.Plan(cloneState(st)).Digest() != fresh.Plan(cloneState(st)).Digest() {
		t.Errorf("misfit bounds changed the plan instead of being discarded")
	}

	// Corrupt bounds are rejected outright.
	if err := New(Config{Shards: 3}).RestoreBounds([]int{0, 6, 3}, 0); err == nil {
		t.Error("non-monotonic bounds accepted")
	}
	if err := New(Config{Shards: 3}).RestoreBounds([]int{2, 6}, 0); err == nil {
		t.Error("bounds not starting at 0 accepted")
	}
}

// TestMegaAppSpanningEveryShard: a web app with an instance on every
// node of every shard still lives in exactly one home shard; every
// foreign instance is reconciled away in the merged plan.
func TestMegaAppSpanningEveryShard(t *testing.T) {
	st := &core.State{Now: 1000, Nodes: testNodes(12)}
	inst := map[cluster.NodeID]res.CPU{}
	for _, n := range st.Nodes {
		inst[n.ID] = 500
	}
	st.Apps = []core.AppInfo{{
		ID: "mega", Lambda: 30, RTGoal: 3.0, Model: mg1Model,
		InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: 1,
		Instances: inst,
	}}
	ctrl := New(Config{Shards: 4})
	plan := ctrl.Plan(cloneState(st))

	homes := 0
	var sc partitionScratch
	p := sc.split(cloneState(st), 4)
	for _, sub := range p.states {
		for i := range sub.Apps {
			if sub.Apps[i].ID == "mega" {
				homes++
				// The home view holds only the home shard's instances.
				for id := range sub.Apps[i].Instances {
					found := false
					for _, n := range sub.Nodes {
						if n.ID == id {
							found = true
						}
					}
					if !found {
						t.Errorf("home view kept foreign instance %s", id)
					}
				}
			}
		}
	}
	if homes != 1 {
		t.Fatalf("mega app homed in %d shards, want 1", homes)
	}
	removes := 0
	for _, a := range plan.Actions {
		if r, ok := a.(core.RemoveInstance); ok && r.App == "mega" {
			removes++
		}
	}
	// 12 instances, one home shard of 3 nodes: at least the 9 foreign
	// instances go (the home shard may trim further).
	if removes < 9 {
		t.Errorf("merged plan removes %d mega instances, want >= 9 foreign ones", removes)
	}
}

// TestShardsBeyondPopulatedNodes: K far beyond the node count clamps to
// one shard per node, keeps every shard non-empty, and reports the
// effective count.
func TestShardsBeyondPopulatedNodes(t *testing.T) {
	st := &core.State{Now: 1000, Nodes: testNodes(3)}
	st.Jobs = append(st.Jobs,
		testJob("p0", batch.Pending, "", 5000, 4500*1000, 99000, 0),
		testJob("p1", batch.Pending, "", 5000, 4500*1000, 99000, 1),
	)
	ctrl := New(Config{Shards: 8})
	ctrl.Plan(cloneState(st))
	d := ctrl.Diagnostics()
	if d.ConfiguredShards != 8 || d.EffectiveShards != 3 {
		t.Errorf("diagnostics %+v, want configured 8 / effective 3", d)
	}
	var sc partitionScratch
	p := sc.split(cloneState(st), 8)
	if len(p.states) != 3 {
		t.Fatalf("partitioner built %d shards for 3 nodes", len(p.states))
	}
	for i, sub := range p.states {
		if len(sub.Nodes) != 1 {
			t.Errorf("shard %d has %d nodes, want exactly 1", i, len(sub.Nodes))
		}
	}
}

// TestDiagnosticsLifecycle: before any plan, after a K=1 plan, and
// after a K>1 plan the diagnostics stay meaningful.
func TestDiagnosticsLifecycle(t *testing.T) {
	ctrl := New(Config{Shards: 4})
	if d := ctrl.Diagnostics(); d.EffectiveShards != 1 || d.LoadSpread != 1 {
		t.Errorf("pre-plan diagnostics %+v, want effective 1 / spread 1", d)
	}
	one := New(Config{Shards: 1})
	one.Plan(&core.State{Now: 1, Nodes: testNodes(2)})
	if d := one.Diagnostics(); d.EffectiveShards != 1 || d.LoadSpread != 1 || d.Reshards != 0 {
		t.Errorf("K=1 diagnostics %+v", d)
	}
	ctrl.Plan(&core.State{Now: 1, Nodes: testNodes(8)})
	d := ctrl.Diagnostics()
	if d.EffectiveShards != 4 || d.LoadSpread < 1 || math.IsNaN(d.LoadSpread) {
		t.Errorf("K=4 diagnostics %+v", d)
	}
}

// TestSplitParallelMatchesSerial: the chunked split passes must be
// byte-identical whatever GOMAXPROCS says — run the same sequence
// serially and with forced parallelism and compare partitions.
func TestSplitParallelMatchesSerial(t *testing.T) {
	st := reshardState()
	// Widen the scenario so every chunk is non-trivial.
	for i := 0; i < 200; i++ {
		state := batch.Pending
		var node cluster.NodeID
		if i%3 == 0 {
			state = batch.Running
			node = st.Nodes[i%len(st.Nodes)].ID
		}
		j := testJob(fmt.Sprintf("x%03d", i), state, node,
			res.Memory(1000+(i%7)*500), 4500*5000, 90000, float64(i))
		if state == batch.Running {
			j.Share = 2000
		}
		st.Jobs = append(st.Jobs, j)
	}
	st.Apps = append(st.Apps, core.AppInfo{
		ID: "w", Lambda: 20, RTGoal: 3, Model: mg1Model, InstanceMem: 1000,
		MaxPerInstance: 18000, MinInstances: 1,
		Instances: map[cluster.NodeID]res.CPU{"n001": 100, "n004": 200, "n008": 300},
	})

	digests := make([][]string, 2)
	for pass, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		var sc partitionScratch
		seq := cloneState(st)
		for cycle := 0; cycle < 3; cycle++ {
			p := sc.split(seq, 4)
			digests[pass] = append(digests[pass], partitionDigest(p))
			if cycle == 1 {
				injectTailSkew(seq)
			}
		}
		runtime.GOMAXPROCS(old)
	}
	for c := range digests[0] {
		if digests[0][c] != digests[1][c] {
			t.Fatalf("cycle %d: parallel split differs from serial split", c)
		}
	}
}

// TestPartitionLoadsAndSpread: the reported loads cover every shard and
// the spread is max/min over them.
func TestPartitionLoadsAndSpread(t *testing.T) {
	st := reshardState()
	var sc partitionScratch
	p := sc.split(cloneState(st), 3)
	if len(p.loads) != 3 {
		t.Fatalf("loads %v, want 3 entries", p.loads)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, l := range p.loads {
		if l <= 0 {
			t.Fatalf("non-positive shard load %v in %v", l, p.loads)
		}
		lo = math.Min(lo, l)
		hi = math.Max(hi, l)
	}
	if want := hi / lo; math.Abs(p.spread-want) > 1e-12 {
		t.Errorf("spread %v, want max/min %v of %v", p.spread, want, p.loads)
	}
}
