package experiments_test

import (
	"fmt"

	"slaplace/internal/baseline"
	"slaplace/internal/control"
	"slaplace/internal/core"
	"slaplace/internal/experiments"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/vm"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// ExampleRun_customScenario builds a scenario from scratch: two nodes,
// one web application with a 2-second SLA, and a burst of three batch
// jobs.
func ExampleRun_customScenario() {
	model, err := queueing.NewMG1PS(1350, 4500) // 0.3 s/request on one core
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sc := experiments.Scenario{
		Name: "example", Seed: 1, Horizon: 4000,
		Nodes: 2, NodeCPU: 18000, NodeMem: 16 * res.GB,
		Costs:      vm.DefaultCosts(),
		Controller: core.New(core.DefaultConfig()),
		Loop: control.Options{
			CyclePeriod: 300, FirstCycle: 30, ActuationDelay: 25,
		},
		Jobs: []experiments.JobStream{{
			Class: batch.Class{
				Name: "crunch", Work: res.Work(4500 * 600),
				MaxSpeed: 4500, Mem: 5 * res.GB, GoalStretch: 3,
			},
			Phases:       []batch.Phase{{Start: 0, MeanInterarrival: 1e9}},
			InitialBurst: 3, MaxJobs: 3, IDPrefix: "crunch",
		}},
		Apps: []trans.Config{{
			ID: "shop", RTGoal: 2.0, Model: model,
			Pattern:     trans.Constant{Rate: 5},
			InstanceMem: 1 * res.GB, MaxPerInstance: 18000, MinInstances: 1,
		}},
	}
	result, err := experiments.Run(sc)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("jobs completed: %d\n", result.JobStats.Completed)
	// Output:
	// jobs completed: 3
}

// ExampleScenario_baselines swaps the placement policy on an otherwise
// identical scenario.
func ExampleScenario_baselines() {
	for _, ctrl := range []core.Controller{
		core.New(core.DefaultConfig()),
		baseline.FCFS{},
		baseline.Static{BatchFraction: 0.5},
	} {
		sc := experiments.QuickScenario(42)
		sc.Controller = ctrl
		result, err := experiments.Run(sc)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%s: %d completed\n", ctrl.Name(), result.JobStats.Completed)
	}
	// Output:
	// utility-placement: 20 completed
	// fcfs: 20 completed
	// static[batch=50%]: 20 completed
}
