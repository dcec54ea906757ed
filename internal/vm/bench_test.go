package vm

import (
	"fmt"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/sim"
)

// BenchmarkSetShareRecompute measures a share change on a node packed
// with residents — the most frequent actuation in a control cycle.
func BenchmarkSetShareRecompute(b *testing.B) {
	for _, residents := range []int{4, 16} {
		b.Run(fmt.Sprintf("residents=%d", residents), func(b *testing.B) {
			eng := sim.New()
			cl := cluster.Uniform(1, 72000, 1<<30)
			m := NewManager(eng, cl, Costs{})
			for i := 0; i < residents; i++ {
				id := ID(fmt.Sprintf("vm%d", i))
				if err := m.Provision(id, "node-001", 1024, 4500, 4500); err != nil {
					b.Fatal(err)
				}
			}
			for eng.Step() {
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate the share so the recompute cannot short-circuit.
				share := res.CPU(1000 + i%2*500)
				if err := m.SetShare("vm0", share); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSuspendResumeCycle measures a full suspend/resume round
// trip including the engine events it schedules.
func BenchmarkSuspendResumeCycle(b *testing.B) {
	eng := sim.New()
	cl := cluster.Uniform(2, 18000, 1<<30)
	m := NewManager(eng, cl, Costs{SuspendLatency: 1, ResumeLatency: 1})
	if err := m.Provision("vm", "node-001", 1024, 4500, 4500); err != nil {
		b.Fatal(err)
	}
	for eng.Step() {
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Suspend("vm"); err != nil {
			b.Fatal(err)
		}
		for eng.Step() {
		}
		node := cluster.NodeID("node-001")
		if i%2 == 1 {
			node = "node-002"
		}
		if err := m.Resume("vm", node, 4500); err != nil {
			b.Fatal(err)
		}
		for eng.Step() {
		}
	}
}
