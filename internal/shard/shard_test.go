package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"slaplace/api"
	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// mg1Model is the shared test queueing model.
var mg1Model = func() queueing.MG1PS {
	m, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		panic(err)
	}
	return m
}()

// testNodes builds n uniform paper-shaped nodes.
func testNodes(n int) []core.NodeInfo {
	out := make([]core.NodeInfo, n)
	for i := range out {
		out[i] = core.NodeInfo{
			ID: cluster.NodeID(fmt.Sprintf("n%03d", i)), CPU: 18000, Mem: 16000,
		}
	}
	return out
}

// testJob builds a JobInfo with an explicit memory footprint.
func testJob(id string, state batch.State, node cluster.NodeID, mem res.Memory, remaining res.Work, goal, submitted float64) core.JobInfo {
	return core.JobInfo{
		ID: batch.JobID(id), Class: "batch", State: state, Node: node,
		Remaining: remaining, MaxSpeed: 4500, Mem: mem,
		Goal: goal, Submitted: submitted,
	}
}

// cloneState deep-copies a snapshot so two planners never share
// mutable state.
func cloneState(st *core.State) *core.State {
	cp := &core.State{Now: st.Now}
	cp.Nodes = append([]core.NodeInfo(nil), st.Nodes...)
	cp.Jobs = append([]core.JobInfo(nil), st.Jobs...)
	for _, a := range st.Apps {
		ac := a
		ac.Instances = make(map[cluster.NodeID]res.CPU, len(a.Instances))
		for n, s := range a.Instances {
			ac.Instances[n] = s
		}
		cp.Apps = append(cp.Apps, ac)
	}
	return cp
}

// randomState builds an arbitrary-but-valid snapshot, including
// pending and suspended jobs and apps whose instances may span shards.
func randomState(rng *rand.Rand) *core.State {
	nNodes := 3 + rng.Intn(6)
	st := &core.State{Now: 5000 + float64(rng.Intn(1000)), Nodes: testNodes(nNodes)}
	mems := []res.Memory{3000, 5000, 11000, 12000, 15000}
	nJobs := 4 + rng.Intn(14)
	for i := 0; i < nJobs; i++ {
		state := batch.Pending
		var node cluster.NodeID
		switch rng.Intn(3) {
		case 0:
			state = batch.Running
			node = st.Nodes[rng.Intn(nNodes)].ID
		case 1:
			state = batch.Suspended
		}
		j := testJob(fmt.Sprintf("j%02d", i), state, node,
			mems[rng.Intn(len(mems))],
			res.Work(4500*float64(1000+rng.Intn(40000))),
			st.Now+float64(rng.Intn(60000))-5000,
			float64(rng.Intn(5000)))
		if state == batch.Running {
			j.Share = res.CPU(rng.Intn(4500) + 1)
		}
		st.Jobs = append(st.Jobs, j)
	}
	nApps := rng.Intn(3)
	for a := 0; a < nApps; a++ {
		instances := map[cluster.NodeID]res.CPU{}
		for _, n := range st.Nodes {
			if rng.Intn(2) == 0 {
				instances[n.ID] = res.CPU(rng.Intn(9000))
			}
		}
		st.Apps = append(st.Apps, core.AppInfo{
			ID: trans.AppID(fmt.Sprintf("app%d", a)), Lambda: 10 + float64(rng.Intn(80)),
			RTGoal: 3.0, Model: mg1Model, InstanceMem: 1000,
			MaxPerInstance: 18000, MinInstances: rng.Intn(2),
			Instances: instances,
		})
	}
	return st
}

// mutateState applies one cycle's worth of random world drift.
func mutateState(rng *rand.Rand, st *core.State) {
	st.Now += 600
	for i := range st.Jobs {
		j := &st.Jobs[i]
		if j.State != batch.Running {
			continue
		}
		burn := res.Work(float64(j.Share) * 600)
		if burn >= j.Remaining {
			burn = j.Remaining / 2
		}
		if j.Remaining -= burn; j.Remaining <= 0 {
			j.Remaining = 1
		}
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		switch rng.Intn(7) {
		case 0: // arrival
			st.Jobs = append(st.Jobs, testJob(fmt.Sprintf("a%04d", rng.Intn(10000)),
				batch.Pending, "", 5000, res.Work(4500*float64(1000+rng.Intn(20000))),
				st.Now+float64(rng.Intn(40000)), st.Now))
		case 1: // completion
			if len(st.Jobs) > 1 {
				i := rng.Intn(len(st.Jobs))
				st.Jobs = append(st.Jobs[:i], st.Jobs[i+1:]...)
			}
		case 2: // a pending job got started
			for i := range st.Jobs {
				if st.Jobs[i].State == batch.Pending {
					st.Jobs[i].State = batch.Running
					st.Jobs[i].Node = st.Nodes[rng.Intn(len(st.Nodes))].ID
					st.Jobs[i].Share = 4500
					break
				}
			}
		case 3: // a running job got suspended
			for i := range st.Jobs {
				if st.Jobs[i].State == batch.Running {
					st.Jobs[i].State = batch.Suspended
					st.Jobs[i].Node = ""
					st.Jobs[i].Share = 0
					break
				}
			}
		case 4: // demand drift
			for a := range st.Apps {
				st.Apps[a].Lambda *= 0.8 + rng.Float64()*0.4
			}
		case 5: // instance churn
			if len(st.Apps) > 0 {
				a := &st.Apps[rng.Intn(len(st.Apps))]
				n := st.Nodes[rng.Intn(len(st.Nodes))].ID
				if _, ok := a.Instances[n]; ok {
					delete(a.Instances, n)
				} else {
					a.Instances[n] = res.CPU(rng.Intn(9000))
				}
			}
		case 6: // nothing this tick
		}
	}
}

func TestEffectiveShards(t *testing.T) {
	cases := []struct{ k, nodes, want int }{
		{0, 5, 1}, {-3, 5, 1}, {1, 5, 1}, {4, 5, 4}, {8, 5, 5}, {16, 0, 1}, {3, 3, 3},
	}
	for _, tc := range cases {
		if got := effectiveShards(tc.k, tc.nodes); got != tc.want {
			t.Errorf("effectiveShards(%d, %d) = %d, want %d", tc.k, tc.nodes, got, tc.want)
		}
	}
}

// boundsFor runs the load-aware boundary computation over an explicit
// per-node weight profile.
func boundsFor(weights []int64, k int) []int {
	var sc partitionScratch
	prefix := make([]int64, len(weights)+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	sc.computeBounds(prefix, len(weights), k)
	return sc.bounds
}

// checkBoundsShape asserts the structural boundary invariants: cover
// [0, n), strictly increasing, at least one node per shard.
func checkBoundsShape(t *testing.T, bounds []int, n, k int) {
	t.Helper()
	if len(bounds) != k+1 || bounds[0] != 0 || bounds[k] != n {
		t.Fatalf("bounds %v do not cover [0, %d) in %d shards", bounds, n, k)
	}
	for i := 0; i < k; i++ {
		if bounds[i+1] <= bounds[i] {
			t.Fatalf("bounds %v leave shard %d empty", bounds, i)
		}
	}
}

// TestComputeBoundsUniform: uniform weights degrade to near-equal node
// blocks (the old contiguous partitioning).
func TestComputeBoundsUniform(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{10, 3}, {7, 7}, {20, 4}, {5, 2}, {1, 1}} {
		weights := make([]int64, tc.n)
		for i := range weights {
			weights[i] = 16000
		}
		bounds := boundsFor(weights, tc.k)
		checkBoundsShape(t, bounds, tc.n, tc.k)
		for i := 0; i < tc.k; i++ {
			if size := bounds[i+1] - bounds[i]; size != tc.n/tc.k && size != tc.n/tc.k+1 {
				t.Errorf("n=%d k=%d shard %d has %d nodes, want near-equal", tc.n, tc.k, i, size)
			}
		}
	}
}

// TestComputeBoundsSkew: demand concentrated in one node block shrinks
// that block's shard instead of splitting by node count.
func TestComputeBoundsSkew(t *testing.T) {
	// All extra demand on the first three of nine nodes.
	weights := []int64{80000, 80000, 80000, 16000, 16000, 16000, 16000, 16000, 16000}
	bounds := boundsFor(weights, 3)
	checkBoundsShape(t, bounds, len(weights), 3)
	hot := bounds[1] - bounds[0]
	if hot >= 3 {
		t.Errorf("hot shard kept %d nodes (bounds %v); load-aware split should shrink it", hot, bounds)
	}
	// The load-aware blocks must spread demand strictly better than
	// equal-count blocks would.
	blockW := func(b []int) (lo, hi int64) {
		lo, hi = int64(1<<62), int64(-1)
		for i := 0; i+1 < len(b); i++ {
			var w int64
			for j := b[i]; j < b[i+1]; j++ {
				w += weights[j]
			}
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
		return lo, hi
	}
	gotLo, gotHi := blockW(bounds)
	eqLo, eqHi := blockW([]int{0, 3, 6, 9})
	if float64(gotHi)/float64(gotLo) >= float64(eqHi)/float64(eqLo) {
		t.Errorf("load-aware spread %d/%d not better than equal blocks %d/%d",
			gotHi, gotLo, eqHi, eqLo)
	}
	// A single dominant node gets isolated rather than dragging
	// neighbours into its shard.
	giant := []int64{16000, 16000, 16000, 16000, 1 << 20, 16000, 16000, 16000}
	gb := boundsFor(giant, 4)
	checkBoundsShape(t, gb, len(giant), 4)
	for i := 0; i < 4; i++ {
		if gb[i] == 4 && gb[i+1] == 5 {
			return
		}
	}
	t.Errorf("dominant node not isolated: bounds %v", gb)
}

// TestPartitionPinsAndBalances pins the partitioner's assignment
// rules: running jobs follow their node, unpinned jobs deal
// round-robin, every job lands in exactly one shard.
func TestPartitionPinsAndBalances(t *testing.T) {
	st := &core.State{Now: 1000, Nodes: testNodes(6)}
	st.Jobs = append(st.Jobs,
		testJob("r0", batch.Running, "n005", 5000, 4500*1000, 99000, 0), // last block
		testJob("p0", batch.Pending, "", 5000, 4500*1000, 99000, 1),
		testJob("p1", batch.Pending, "", 5000, 4500*1000, 99000, 2),
		testJob("s0", batch.Suspended, "", 5000, 4500*1000, 99000, 3),
		testJob("stranded", batch.Running, "gone", 5000, 4500*1000, 99000, 4),
	)
	var sc partitionScratch
	p := sc.split(st, 3)
	if len(p.states) != 3 {
		t.Fatalf("got %d shards", len(p.states))
	}
	find := func(id string) int {
		found := -1
		for s, sub := range p.states {
			for i := range sub.Jobs {
				if string(sub.Jobs[i].ID) == id {
					if found >= 0 {
						t.Fatalf("job %s in shards %d and %d", id, found, s)
					}
					found = s
				}
			}
		}
		if found < 0 {
			t.Fatalf("job %s in no shard", id)
		}
		return found
	}
	if s := find("r0"); s != 2 {
		t.Errorf("running job on n005 in shard %d, want 2", s)
	}
	// Unpinned jobs (p0, p1, s0, stranded) deal round-robin in
	// snapshot order: shards 0, 1, 2, 0.
	for id, want := range map[string]int{"p0": 0, "p1": 1, "s0": 2, "stranded": 0} {
		if s := find(id); s != want {
			t.Errorf("unpinned job %s in shard %d, want %d", id, s, want)
		}
	}
	for i, sub := range p.states {
		if want := 2; len(sub.Nodes) != want {
			t.Errorf("shard %d has %d nodes, want %d", i, len(sub.Nodes), want)
		}
	}
}

// TestPartitionAppHomeAndReconcile pins app home-shard selection and
// the cross-shard instance reconcile.
func TestPartitionAppHomeAndReconcile(t *testing.T) {
	st := &core.State{Now: 1000, Nodes: testNodes(6)} // shards of 2 at K=3
	st.Apps = []core.AppInfo{
		{ // plurality in shard 1, one foreign instance in shard 0, one offline
			ID: "web", Lambda: 20, RTGoal: 3, Model: mg1Model,
			InstanceMem: 1000, MaxPerInstance: 18000,
			Instances: map[cluster.NodeID]res.CPU{
				"n000": 100, "n002": 200, "n003": 300, "offline": 400,
			},
		},
		{ // no live instances: dealt round-robin (first homeless app -> shard 0)
			ID: "fresh", Lambda: 10, RTGoal: 3, Model: mg1Model,
			InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: 1,
			Instances: map[cluster.NodeID]res.CPU{},
		},
	}
	var sc partitionScratch
	p := sc.split(st, 3)
	if n := len(p.states[1].Apps); n != 1 || p.states[1].Apps[0].ID != "web" {
		t.Fatalf("shard 1 apps: %+v", p.states[1].Apps)
	}
	web := p.states[1].Apps[0]
	if _, ok := web.Instances["n000"]; ok {
		t.Error("foreign instance n000 not stripped from home view")
	}
	if _, ok := web.Instances["offline"]; !ok {
		t.Error("offline-node instance must stay in the home view (planner ignores it)")
	}
	if len(web.Instances) != 3 {
		t.Errorf("home view has %d instances, want 3 (n002, n003, offline)", len(web.Instances))
	}
	want := core.Action{Kind: core.RemoveInstance, App: "web", Node: "n000"}
	if len(p.reconcile) != 1 || p.reconcile[0] != want {
		t.Errorf("reconcile = %v, want [%v]", p.reconcile, want)
	}
	if n := len(p.states[0].Apps); n != 1 || p.states[0].Apps[0].ID != "fresh" {
		t.Errorf("homeless app not dealt to shard 0: %+v", p.states[0].Apps)
	}
}

// TestPartitionDeterministic: identical snapshot sequences split
// identically. The boundaries are history-dependent (they persist
// until topology change or demand skew), so the determinism contract
// is over sequences from a fresh scratch, not over isolated calls.
func TestPartitionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		st := randomState(rng)
		k := 2 + rng.Intn(3)
		var s1, s2 partitionScratch
		for cycle := 0; cycle < 5; cycle++ {
			a := partitionDigest(s1.split(cloneState(st), k))
			b := partitionDigest(s2.split(cloneState(st), k))
			if a != b {
				t.Fatalf("trial %d cycle %d: partition differs between two scratches replaying the same sequence", trial, cycle)
			}
			if s1.reshards != s2.reshards {
				t.Fatalf("trial %d cycle %d: reshard decisions diverged (%d vs %d)",
					trial, cycle, s1.reshards, s2.reshards)
			}
			mutateState(rng, st)
		}
	}
}

// partitionDigest renders a partition as a comparable string.
func partitionDigest(p *partition) string {
	s := ""
	for i, sub := range p.states {
		s += fmt.Sprintf("shard %d nodes=%d\n", i, len(sub.Nodes))
		for _, n := range sub.Nodes {
			s += string(n.ID) + ","
		}
		s += "\n"
		for j := range sub.Jobs {
			s += string(sub.Jobs[j].ID) + ","
		}
		s += "\n"
		for a := range sub.Apps {
			s += string(sub.Apps[a].ID) + fmt.Sprintf("(%d),", len(sub.Apps[a].Instances))
		}
		s += "\n"
	}
	for _, r := range p.reconcile {
		s += r.String() + "\n"
	}
	return s
}

// TestMergeOrdersFreesFirst: the merged action list places every
// resource-freeing action (reconcile removals, suspends, instance
// removals) before any placement or share change, regardless of which
// shard emitted it. The ordering contract itself is core.FreeingFirst,
// shared with the chaos replay harness.
func TestMergeOrdersFreesFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	seen := false
	for trial := 0; trial < 20; trial++ {
		st := randomState(rng)
		k := 2 + rng.Intn(3)
		ctrl := New(Config{Shards: k})
		plan := ctrl.Plan(st)
		if err := core.FreeingFirst(plan.Actions); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, a := range plan.Actions {
			switch a.Kind {
			case core.SuspendJob, core.RemoveInstance:
				seen = true
			}
		}
	}
	if !seen {
		t.Skip("no trial produced a freeing action; generator drifted")
	}
}

// TestShardedK1IsByteIdentical: with one shard the sharded controller
// must be indistinguishable from the wrapped controller, cycle for
// cycle, byte for byte.
func TestShardedK1IsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		st := randomState(rng)
		sharded := New(Config{Shards: 1})
		plain := core.New(core.DefaultConfig())
		for cycle := 0; cycle < 4; cycle++ {
			got := sharded.Plan(cloneState(st))
			want := plain.Plan(cloneState(st))
			if got.Digest() != want.Digest() {
				t.Fatalf("trial %d cycle %d: K=1 sharded plan diverges from plain controller", trial, cycle)
			}
			mutateState(rng, st)
		}
	}
}

// TestShardedDeterministic: identical snapshots yield identical merged
// plans even though shards plan concurrently.
func TestShardedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		st := randomState(rng)
		k := 2 + rng.Intn(3)
		a := New(Config{Shards: k}).Plan(cloneState(st))
		b := New(Config{Shards: k}).Plan(cloneState(st))
		if a.Digest() != b.Digest() {
			t.Fatalf("trial %d: sharded plan not deterministic at K=%d", trial, k)
		}
	}
}

// TestShardedPlanStats: per-shard reuse stats aggregate; a replayed
// cycle on every shard reports as replayed.
func TestShardedPlanStats(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	st := randomState(rng)
	ctrl := New(Config{Shards: 2})
	ctrl.Plan(cloneState(st))
	stats := ctrl.PlanStats()
	if stats.Full == 0 {
		t.Errorf("first cycle reported no full plans: %+v", stats)
	}
	ctrl.Plan(cloneState(st))
	stats = ctrl.PlanStats()
	if stats.Replayed == 0 || stats.LastMode != core.PlanReplayed {
		t.Errorf("identical re-plan did not replay on every shard: %+v", stats)
	}
}

// TestOverSizedShardConfig is a regression test: a shard count far
// beyond the node count must neither allocate that many controllers
// nor pollute the aggregated stats with never-used ones (idle
// zero-value stats used to pin the reported LastMode to "full").
func TestOverSizedShardConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	st := randomState(rng) // handful of nodes
	ctrl := New(Config{Shards: 4096})
	ctrl.Plan(cloneState(st))
	ctrl.mu.Lock()
	materialized := len(ctrl.inner)
	ctrl.mu.Unlock()
	if materialized > len(st.Nodes) {
		t.Errorf("%d controllers materialized for %d nodes", materialized, len(st.Nodes))
	}
	ctrl.Plan(cloneState(st)) // identical snapshot: every shard replays
	if stats := ctrl.PlanStats(); stats.LastMode != core.PlanReplayed {
		t.Errorf("LastMode %v after a full replay cycle, want replayed (idle-controller stats leak?)", stats.LastMode)
	}
	if New(Config{Shards: api.MaxShards + 5}).cfg.Shards != api.MaxShards {
		t.Errorf("config shard count not clamped to MaxShards")
	}
}

// TestShardedStatesAreNeverReused: an inner controller may read the
// per-shard State it was handed until its next plan, so split must never
// write into a State's job or app slices again. At one unchanged
// instant, a K=4 controller sees one job's remaining work change, then
// loses nodes until it plans two shards, then gets them back with a job
// of the idle shard 3 changed. A rewritten buffer would show a shard's
// memo the new snapshot and replay a stale plan. Every plan must equal
// a new sharded controller's plan of a deep copy.
func TestShardedStatesAreNeverReused(t *testing.T) {
	base := &core.State{Now: 5000, Nodes: testNodes(8)}
	for i := range 16 {
		j := testJob(fmt.Sprintf("j%02d", i), batch.Running, base.Nodes[i%8].ID, 3000,
			res.Work(4500*float64(2000+100*i)), 6500+float64(100*i), 0) // late even at full speed
		j.Share = 2000
		base.Jobs = append(base.Jobs, j)
	}
	base.Jobs = append(base.Jobs, testJob("p00", batch.Pending, "", 12000, 4500*3000, 30000, 10))
	lessWork := func(st *core.State, job int) *core.State {
		next := cloneState(st)
		next.Jobs[job].Remaining -= 4500 * 600
		return next
	}
	drifted := lessWork(base, 0) // j00 runs on n000, in shard 0
	shrunk := cloneState(drifted)
	shrunk.Nodes = shrunk.Nodes[:2]
	back := lessWork(drifted, 15) // j15 runs on n007, in shard 3

	ctrl := New(Config{Shards: 4})
	for i, st := range []*core.State{base, drifted, shrunk, back} {
		got := ctrl.Plan(st)
		if k := ctrl.Diagnostics().EffectiveShards; k != min(4, len(st.Nodes)) {
			t.Fatalf("snapshot %d planned as %d shards", i, k)
		}
		want := New(Config{Shards: 4}).Plan(cloneState(st))
		if got.Digest() != want.Digest() {
			t.Errorf("snapshot %d: plan differs from a new controller's\n got %v\nwant %v", i, got.Actions, want.Actions)
		}
	}
}
