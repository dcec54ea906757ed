package core

import (
	"fmt"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// FuzzPlanInvariants holds the placement controller to CheckPlan on
// any snapshot that satisfies it before planning: whatever the bytes
// describe, the plan must leave no node over its memory and no node's
// job tier over its CPU, and must act at most once on each job and
// instance. The committed seeds under testdata/fuzz are the two inputs
// that broke it: web placement adding an instance into memory a later
// app's kept instance holds, and a share reduction within tolerance
// being suppressed while the placement it made room for was not.
//
//	go test -run '^$' -fuzz 'FuzzPlanInvariants$' -fuzztime 20s ./internal/core
func FuzzPlanInvariants(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st := fuzzState(data)
		if err := CheckPlan(st, &Plan{}); err != nil {
			t.Skipf("the snapshot already fails: %v", err)
		}
		plan := New(DefaultConfig()).Plan(st)
		if err := CheckPlan(st, plan); err != nil {
			t.Fatalf("%v\nplan: %v", err, plan.Actions)
		}
	})
}

// fuzzState decodes bytes into a snapshot of 1-6 nodes of 18 GHz and
// 16 GB; 0-3 web apps with 1-3 GB instances, resident where memory
// fits; and 0-23 jobs of 1-6 GB, each pending, suspended, or running
// where its memory and share fit. Missing bytes read as zero.
func fuzzState(data []byte) *State {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	st := &State{Now: 1000, Nodes: nodes(1 + next()%6)}
	memFree := make([]res.Memory, len(st.Nodes))
	cpuFree := make([]res.CPU, len(st.Nodes))
	for i, n := range st.Nodes {
		memFree[i], cpuFree[i] = n.Mem, n.CPU
	}
	for a := range next() % 4 {
		app := AppInfo{
			ID:     trans.AppID(fmt.Sprintf("app%d", a)),
			Lambda: float64(1 + next()), RTGoal: float64(1 + next()%5), Model: mg1Model,
			InstanceMem: res.Memory(1000 * (1 + next()%3)), MaxPerInstance: 18000,
			MinInstances: next() % 3, Instances: map[cluster.NodeID]res.CPU{},
		}
		mask := next()
		for i, n := range st.Nodes {
			if mask>>i&1 == 1 && memFree[i] >= app.InstanceMem {
				memFree[i] -= app.InstanceMem
				app.Instances[n.ID] = res.CPU(100 * next())
			}
		}
		st.Apps = append(st.Apps, app)
	}
	for j := range next() % 24 {
		job := JobInfo{
			ID: batch.JobID(fmt.Sprintf("j%02d", j)), State: batch.Pending,
			MaxSpeed: 4500, Mem: res.Memory(1000 * (1 + next()%6)),
			Remaining: res.Work(4500 * 60 * float64(1+next())),
			Goal:      st.Now + float64(600*(1+next()%16)),
		}
		switch next() % 3 {
		case 1:
			job.State = batch.Suspended
		case 2:
			i, share := next()%len(st.Nodes), res.CPU(4500*float64(1+next())/256)
			if memFree[i] >= job.Mem && cpuFree[i] >= share {
				job.State, job.Node, job.Share = batch.Running, st.Nodes[i].ID, share
				memFree[i] -= job.Mem
				cpuFree[i] -= share
			}
		}
		st.Jobs = append(st.Jobs, job)
	}
	return st
}
