package shard

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/res"
	"slaplace/internal/utility"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// fromScratchPlan plans st on a fresh unsharded controller with reuse
// disabled — the reference semantics.
func fromScratchPlan(st *core.State) *core.Plan {
	cfg := core.DefaultConfig()
	cfg.Incremental = false
	return core.New(cfg).Plan(st)
}

// actionSet renders a plan's actions as a sorted multiset for
// order-insensitive comparison.
func actionSet(p *core.Plan) []string {
	out := make([]string, 0, len(p.Actions))
	for _, a := range p.Actions {
		out = append(out, a.String())
	}
	sort.Strings(out)
	return out
}

// diffActionSets reports the first difference between two sorted
// action multisets, or "".
func diffActionSets(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d actions vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("action %d: %q vs %q", i, got[i], want[i])
		}
	}
	return ""
}

// alignedState builds a random snapshot on which K-shard planning is
// provably action-set-identical to unsharded planning:
//
//   - every job is running and pinned inside one shard block, so no
//     placement choice exists and ChurnAware keeps everyone in place;
//   - every node has enough CPU headroom that the per-node waterfill
//     grants every job its speed cap (so the rebalance phase never
//     finds a starved candidate to migrate across shards);
//   - every app lives wholly inside one shard with exactly the
//     instance count the web-placement phase wants, so no instance is
//     added or removed anywhere;
//   - total useful demand fits the capacity of every shard, so the
//     equalizer saturates every curve at MaxUseful — bit-identically
//     whether it runs over the whole cluster or per shard.
//
// Under those conditions both planners emit the same share-retune
// actions (job and instance) from the same books, and nothing else.
func alignedState(rng *rand.Rand, k int) *core.State {
	nodesPerShard := 3 + rng.Intn(3)
	st := &core.State{Now: 10000, Nodes: testNodes(k * nodesPerShard)}
	job := 0
	for s := 0; s < k; s++ {
		lo := s * nodesPerShard
		for n := lo; n < lo+nodesPerShard; n++ {
			for j := 0; j < rng.Intn(3); j++ { // 0-2 running jobs per node
				info := testJob(fmt.Sprintf("j%03d", job), batch.Running, st.Nodes[n].ID,
					res.Memory(2000+rng.Intn(1500)),
					res.Work(4500*float64(2000+rng.Intn(30000))),
					10000+float64(rng.Intn(50000)),
					float64(rng.Intn(5000)))
				info.Share = res.CPU(1000 + rng.Intn(3000))
				st.Jobs = append(st.Jobs, info)
				job++
			}
		}
		if rng.Intn(4) == 0 {
			continue // some shards run jobs only
		}
		// One app per shard, sized so neededInstances == live count and
		// the shard stays underloaded even with the jobs' full demand.
		app := core.AppInfo{
			ID:     trans.AppID(fmt.Sprintf("app%d", s)),
			Lambda: 2 + float64(rng.Intn(5)), RTGoal: 3.0, Model: mg1Model,
			InstanceMem: 1000, MaxPerInstance: 6000,
			Instances: map[cluster.NodeID]res.CPU{},
		}
		mu := app.Curve().MaxUseful()
		required := int(math.Ceil(float64(mu) / float64(app.MaxPerInstance)))
		if required < 1 {
			required = 1
		}
		if required > nodesPerShard {
			continue // too hot for this shard shape; skip the app
		}
		app.MinInstances = required
		for i := 0; i < required; i++ {
			app.Instances[st.Nodes[lo+i].ID] = res.CPU(rng.Intn(6000))
		}
		st.Apps = append(st.Apps, app)
	}
	// Shuffle job and app order: partition assignment must not depend
	// on snapshot layout beyond the documented rules.
	rng.Shuffle(len(st.Jobs), func(i, j int) { st.Jobs[i], st.Jobs[j] = st.Jobs[j], st.Jobs[i] })
	rng.Shuffle(len(st.Apps), func(i, j int) { st.Apps[i], st.Apps[j] = st.Apps[j], st.Apps[i] })
	return st
}

// saturated reports whether the equalizer granted every workload its
// full useful demand — the alignedState precondition.
func saturated(st *core.State) bool {
	var curves []utility.Curve
	var capacity res.CPU
	for i := range st.Apps {
		curves = append(curves, st.Apps[i].Curve())
	}
	for i := range st.Jobs {
		curves = append(curves, st.Jobs[i].Curve(st.Now))
	}
	for _, n := range st.Nodes {
		capacity += n.CPU
	}
	var maxUseful res.CPU
	for _, c := range curves {
		maxUseful += c.MaxUseful()
	}
	return maxUseful <= capacity
}

// shardAligned reports whether the real (load-aware) partitioner keeps
// st aligned at K shards: no app straddles a boundary (no reconcile
// removals) and every shard saturates on its own — the preconditions
// under which sharded and unsharded planning provably agree.
func shardAligned(st *core.State, k int) bool {
	if !saturated(st) {
		return false
	}
	var sc partitionScratch
	p := sc.split(cloneState(st), k)
	if len(p.reconcile) > 0 {
		return false
	}
	for _, sub := range p.states {
		if !saturated(sub) {
			return false
		}
	}
	return true
}

// TestShardedEquivalenceAligned is the shard/unshard property test:
// for random scenarios with no cross-shard web apps and no placement
// freedom, the K-shard merged plan is action-set-identical to the
// unsharded (K=1) plan of the same snapshot.
func TestShardedEquivalenceAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trials, acted := 0, 0
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(3)
		st := alignedState(rng, k)
		if !shardAligned(st, k) {
			// The generator lays workloads out in equal node blocks; the
			// load-aware partitioner may cut elsewhere. The property only
			// holds when no app straddles a cut and every shard
			// saturates, so check with the real partitioner.
			continue
		}
		trials++
		got := New(Config{Shards: k}).Plan(cloneState(st))
		want := fromScratchPlan(cloneState(st))
		if d := diffActionSets(actionSet(got), actionSet(want)); d != "" {
			t.Fatalf("trial %d (K=%d, %d nodes, %d jobs, %d apps): sharded plan diverges: %s",
				trial, k, len(st.Nodes), len(st.Jobs), len(st.Apps), d)
		}
		if len(got.Actions) > 0 {
			acted++
		}
		// The diagnostics that sum exactly must also agree bit for bit.
		if got.JobDemand != want.JobDemand || got.JobTarget != want.JobTarget {
			t.Errorf("trial %d: job demand/target diverge: %v/%v vs %v/%v",
				trial, got.JobDemand, got.JobTarget, want.JobDemand, want.JobTarget)
		}
		for id, v := range want.AppTarget {
			if got.AppTarget[id] != v {
				t.Errorf("trial %d: app %s target %v vs %v", trial, id, got.AppTarget[id], v)
			}
		}
	}
	if trials < 20 {
		t.Fatalf("only %d/40 trials were saturated; generator drifted", trials)
	}
	if acted < 10 {
		t.Fatalf("only %d trials emitted actions; generator drifted", acted)
	}
}

// TestShardedMatchesStandalonePartitionPlans: across arbitrary random
// scenarios and cycles of drift, the sharded controller's merged plan
// is byte-identical to partitioning the snapshot and planning every
// partition standalone with a fresh from-scratch controller. This pins
// the whole layer — partition stability, concurrent planning, the
// per-shard incremental tiers and the arena recycling — to the
// reference semantics.
func TestShardedMatchesStandalonePartitionPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 12; trial++ {
		st := randomState(rng)
		k := 2 + rng.Intn(3)
		sharded := New(Config{Shards: k})
		// One reference scratch per trial: boundaries persist across
		// cycles, so the standalone reference must replay the same
		// snapshot history as the controller's own scratch.
		var sc partitionScratch
		for cycle := 0; cycle < 5; cycle++ {
			got := sharded.Plan(cloneState(st))

			ref := cloneState(st)
			p := sc.split(ref, k)
			plans := make([]*core.Plan, len(p.states))
			for i, sub := range p.states {
				plans[i] = fromScratchPlan(sub)
			}
			want := mergePlans(p, plans)
			if got.Digest() != want.Digest() {
				t.Fatalf("trial %d cycle %d (K=%d): merged plan diverges from standalone partition plans",
					trial, cycle, k)
			}
			mutateState(rng, st)
		}
	}
}

// TestCrossShardUtilityBound pins the sharding layer's utility
// guarantee: the unsharded equalized utility level is never below the
// worst shard's level (concatenating the per-shard allocations is a
// feasible global allocation), and the merged plan reports an
// equalized level inside the per-shard bracket.
func TestCrossShardUtilityBound(t *testing.T) {
	const eps = 1e-6
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 15; trial++ {
		st := randomState(rng)
		if len(st.Jobs) == 0 && len(st.Apps) == 0 {
			continue
		}
		k := 2 + rng.Intn(3)
		merged := New(Config{Shards: k}).Plan(cloneState(st))
		var sc partitionScratch
		p := sc.split(cloneState(st), k)
		if len(p.states) == 0 {
			t.Fatalf("trial %d: no shards", trial)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, sub := range p.states {
			u := fromScratchPlan(sub).EqualizedUtility
			lo = math.Min(lo, u)
			hi = math.Max(hi, u)
		}
		global := fromScratchPlan(cloneState(st)).EqualizedUtility
		if global < lo-eps {
			t.Errorf("trial %d (K=%d): global equalized %v below worst shard %v",
				trial, k, global, lo)
		}
		if merged.EqualizedUtility < lo-eps || merged.EqualizedUtility > hi+eps {
			t.Errorf("trial %d (K=%d): merged equalized %v outside shard bracket [%v, %v]",
				trial, k, merged.EqualizedUtility, lo, hi)
		}
	}
}
