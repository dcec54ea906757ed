package core

import (
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// TestInstanceSizingGrowsWithDemand: an app whose equalized target
// exceeds one node's capacity gets multiple instances.
func TestInstanceSizingGrowsWithDemand(t *testing.T) {
	c := New(DefaultConfig())
	// λ=30: λd = 40500; max-useful ≈ 130 500 > 18000 -> needs ≥ 8
	// instances on this 8-node cluster (capped to node count).
	app := webApp(t, "web", 30, nil)
	app.MinInstances = 1
	st := &State{Now: 0, Nodes: nodes(8), Apps: []AppInfo{app}}
	plan := c.Plan(st)
	adds := plan.Count(AddInstance)
	if adds < 4 {
		t.Errorf("adds = %d, want several instances for a multi-node target", adds)
	}
	verifyFeasible(t, st, plan)
}

// TestInstanceRemovalWhenDemandShrinks: instances beyond the needed
// count (and above MinInstances) are retired.
func TestInstanceRemovalWhenDemandShrinks(t *testing.T) {
	c := New(DefaultConfig())
	// Tiny load on four instances: one is enough.
	inst := map[cluster.NodeID]res.CPU{"a": 4000, "b": 4000, "c": 4000, "d": 4000}
	app := webApp(t, "web", 1, inst) // λd = 1350; demand ≈ 4350
	app.MinInstances = 1
	st := &State{Now: 0, Nodes: nodes(4), Apps: []AppInfo{app}}
	plan := c.Plan(st)
	adds, removes := plan.Count(AddInstance), plan.Count(RemoveInstance)
	if removes != 3 {
		t.Errorf("removes = %d, want 3 (down to a single instance)", removes)
	}
	if adds != 0 {
		t.Errorf("adds = %d alongside removals", adds)
	}
	verifyFeasible(t, st, plan)
}

// TestInstanceMinRespected: MinInstances holds even when demand is
// negligible.
func TestInstanceMinRespected(t *testing.T) {
	c := New(DefaultConfig())
	inst := map[cluster.NodeID]res.CPU{"a": 4000, "b": 4000, "c": 4000}
	app := webApp(t, "web", 1, inst)
	app.MinInstances = 3
	st := &State{Now: 0, Nodes: nodes(4), Apps: []AppInfo{app}}
	plan := c.Plan(st)
	removes := plan.Count(RemoveInstance)
	if removes != 0 {
		t.Errorf("removed instances below MinInstances: %v", plan.Actions)
	}
}

// TestInstanceMaxRespected: MaxInstances caps horizontal growth even
// under huge demand.
func TestInstanceMaxRespected(t *testing.T) {
	c := New(DefaultConfig())
	app := webApp(t, "web", 60, nil) // demand far beyond 2 instances
	app.MinInstances = 1
	app.MaxInstances = 2
	st := &State{Now: 0, Nodes: nodes(6), Apps: []AppInfo{app}}
	plan := c.Plan(st)
	adds := plan.Count(AddInstance)
	if adds > 2 {
		t.Errorf("adds = %d, want at most MaxInstances=2", adds)
	}
}

// TestInstancePlacementAvoidsFullNodes: new instances go only where
// memory is available.
func TestInstancePlacementAvoidsFullNodes(t *testing.T) {
	c := New(DefaultConfig())
	// Node "a" is packed with 3 running jobs (15000 of 16000 MB used),
	// leaving exactly 1000 MB — enough for the 1000 MB instance. Shrink
	// node "a"'s memory so it cannot host an instance at all.
	st := &State{Now: 0, Nodes: nodes(2)}
	st.Nodes[0].Mem = 15000
	for i := 0; i < 3; i++ {
		j := job(string(rune('1'+i)), batch.Running, "a", 4500, res.Work(4500*1000), 9000)
		st.Jobs = append(st.Jobs, j)
	}
	app := webApp(t, "web", 5, nil)
	app.MinInstances = 1
	app.MaxInstances = 1
	st.Apps = []AppInfo{app}
	plan := c.Plan(st)
	for _, a := range plan.Actions {
		if a.Kind == AddInstance && a.Node == "a" {
			t.Errorf("instance placed on memory-full node: %v", a)
		}
	}
	verifyFeasible(t, st, plan)
}
