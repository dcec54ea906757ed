package slaplace_test

import (
	"fmt"

	"slaplace/internal/experiments"
)

// Example runs the smallest end-to-end scenario and prints its job
// outcome. Everything is deterministic for a fixed seed.
func Example() {
	result, err := experiments.Run(experiments.QuickScenario(42))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	stats := result.ClassStats["batch"]
	fmt.Printf("completed=%d violations=%d\n", stats.Completed, stats.GoalViolations)
	// Output:
	// completed=20 violations=0
}
