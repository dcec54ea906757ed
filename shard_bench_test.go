// Sharded-planning benchmarks: the 20 000-node / 200 000-job cluster
// shape the sharding layer exists for, planned as K ∈ {1, 4, 16}
// partitions. The CI benchmark gate (cmd/benchgate) tracks these
// medians alongside the planner's own (BenchmarkPlacementScale).
package slaplace_test

import (
	"fmt"
	"runtime"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/shard"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// shardedSyntheticState builds a cold half-loaded snapshot shaped for
// sharded planning: `regions` web applications, each confined to its
// own contiguous block of nodes, so a partition count that divides
// `regions` produces no cross-shard applications. Jobs are half
// running (pinned round-robin across all nodes), half pending.
func shardedSyntheticState(nodes, jobs, regions int, model queueing.MG1PS) *core.State {
	st := &core.State{Now: 50000}
	for i := 0; i < nodes; i++ {
		st.Nodes = append(st.Nodes, core.NodeInfo{
			ID:  cluster.NodeID(fmt.Sprintf("n%05d", i)),
			CPU: 18000,
			Mem: 16000,
		})
	}
	running := 0
	for i := 0; i < jobs; i++ {
		info := core.JobInfo{
			ID:        batch.JobID(fmt.Sprintf("j%06d", i)),
			State:     batch.Pending,
			Remaining: res.Work(4500 * float64(5000+i%20000)),
			MaxSpeed:  4500,
			Mem:       5000,
			Goal:      60000 + float64(i%40000),
			Submitted: float64(i),
		}
		if running < nodes*2 && i%2 == 0 {
			info.State = batch.Running
			info.Node = st.Nodes[running%nodes].ID
			info.Share = 4500
			running++
		}
		st.Jobs = append(st.Jobs, info)
	}
	per := nodes / regions
	for r := 0; r < regions; r++ {
		st.Apps = append(st.Apps, core.AppInfo{
			ID: trans.AppID(fmt.Sprintf("web%02d", r)), Lambda: 65, RTGoal: 3.0, Model: model,
			InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: per,
			MaxInstances: per,
			Instances:    map[cluster.NodeID]res.CPU{},
		})
	}
	return st
}

// shardedSteadyState is the carry-over variant: every node hosts its
// region's web instance plus two running jobs, and the pending
// backlog's 12 GB footprint fits neither free memory nor any single
// eviction — steady for every partition count.
func shardedSteadyState(nodes, jobs, regions int, model queueing.MG1PS) *core.State {
	st := &core.State{Now: 50000}
	for i := 0; i < nodes; i++ {
		st.Nodes = append(st.Nodes, core.NodeInfo{
			ID: cluster.NodeID(fmt.Sprintf("n%05d", i)), CPU: 18000, Mem: 16000,
		})
	}
	running := 2 * nodes
	if running > jobs {
		running = jobs
	}
	for i := 0; i < jobs; i++ {
		info := core.JobInfo{
			ID:        batch.JobID(fmt.Sprintf("j%06d", i)),
			State:     batch.Pending,
			Remaining: res.Work(4500 * float64(5000+i%20000)),
			MaxSpeed:  4500,
			Mem:       12000,
			Goal:      60000 + float64(i%40000),
			Submitted: float64(i),
		}
		if i < running {
			info.State = batch.Running
			info.Node = st.Nodes[i%nodes].ID
			info.Share = 4500
			info.Mem = 5000
			info.Goal = 120000 + float64(i)
		}
		st.Jobs = append(st.Jobs, info)
	}
	per := nodes / regions
	for r := 0; r < regions; r++ {
		instances := map[cluster.NodeID]res.CPU{}
		for i := r * per; i < (r+1)*per; i++ {
			instances[st.Nodes[i].ID] = 150
		}
		st.Apps = append(st.Apps, core.AppInfo{
			ID: trans.AppID(fmt.Sprintf("web%02d", r)), Lambda: 65, RTGoal: 3.0, Model: model,
			InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: per,
			MaxInstances: per,
			Instances:    instances,
		})
	}
	return st
}

// newSharded builds a K-shard utility planner; cold variants disable
// the incremental tiers per shard (the reference from-scratch cost).
func newSharded(k int, incremental bool) *shard.Controller {
	return shard.New(shard.Config{
		Shards: k,
		NewController: func() core.Controller {
			cfg := core.DefaultConfig()
			cfg.Incremental = incremental
			return core.New(cfg)
		},
	})
}

// BenchmarkShardedPlacement measures planning cost at the 20 000-node
// / 200 000-job shape for K ∈ {1, 4, 16} shards:
//
//	cold    a from-scratch plan of the half-loaded snapshot;
//	steady  a steady-state re-plan under demand drift (every shard on
//	        its carry-over tier).
//
// Shards plan concurrently, so K > 1 wall-clock scales with available
// cores on top of the per-shard algorithmic savings.
func BenchmarkShardedPlacement(b *testing.B) {
	model, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		b.Fatal(err)
	}
	const nodes, jobs, regions = 20000, 200000, 16
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("cold/nodes=%d/jobs=%d/shards=%d", nodes, jobs, k), func(b *testing.B) {
			st := shardedSyntheticState(nodes, jobs, regions, model)
			ctrl := newSharded(k, false)
			// Cold means no incremental reuse (per-shard tiers are off),
			// not a cold process: one untimed warm-up plan populates the
			// arenas, indexes and partition geometry so the timed
			// iterations measure planning, not first-touch allocation.
			ctrl.Plan(st)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Each iteration is a single ~150 ms sample against a
				// multi-hundred-MB live heap; a GC mark cycle landing
				// mid-sample costs 40-130 ms on one core and swamps the
				// planner delta. Collect outside the timed region so the
				// samples compare planning work, not GC timing luck.
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				if plan := ctrl.Plan(st); plan == nil {
					b.Fatal("nil plan")
				}
			}
		})
	}
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("steady/nodes=%d/jobs=%d/shards=%d", nodes, jobs, k), func(b *testing.B) {
			st := shardedSteadyState(nodes, jobs, regions, model)
			ctrl := newSharded(k, true)
			ctrl.Plan(st) // previous cycle
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Same single-shot-sample reasoning as the cold loop.
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				// Fresh demand level every iteration: genuine carry-over
				// re-plans, never exact-snapshot replays.
				st = withLambda(st, 65+0.1*float64(i%50+1))
				if plan := ctrl.Plan(st); plan == nil {
					b.Fatal("nil plan")
				}
			}
			b.StopTimer()
			if got := ctrl.PlanStats(); got.Incremental == 0 {
				b.Fatalf("steady benchmark left the carry-over tier: %+v", got)
			}
		})
	}
}
