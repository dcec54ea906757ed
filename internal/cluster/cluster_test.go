package cluster

import (
	"testing"

	"slaplace/internal/res"
)

func TestAddAndLookup(t *testing.T) {
	c := New()
	n, err := c.Add("a", 18000, 16*res.GB)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if n.ID() != "a" || n.CPU() != 18000 || n.Mem() != 16*res.GB || !n.Online() {
		t.Errorf("node fields wrong: %v", n)
	}
	got, ok := c.Node("a")
	if !ok || got != n {
		t.Error("lookup failed")
	}
	if _, ok := c.Node("missing"); ok {
		t.Error("lookup of missing node succeeded")
	}
}

func TestAddValidation(t *testing.T) {
	c := New()
	if _, err := c.Add("", 1, 1); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := c.Add("a", 0, 1); err == nil {
		t.Error("zero CPU accepted")
	}
	if _, err := c.Add("a", 1, 0); err == nil {
		t.Error("zero memory accepted")
	}
	if _, err := c.Add("a", 1, 1); err != nil {
		t.Errorf("valid Add rejected: %v", err)
	}
	if _, err := c.Add("a", 1, 1); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestUniform(t *testing.T) {
	c := Uniform(25, 18000, 16000)
	nodes := c.OnlineNodes()
	if len(nodes) != 25 {
		t.Fatalf("%d nodes, want 25", len(nodes))
	}
	for _, n := range nodes {
		if n.CPU() != 18000 || n.Mem() != 16000 {
			t.Errorf("node %v, want 18000 MHz and 16000 MB", n)
		}
	}
	if nodes[0].ID() != "node-001" || nodes[24].ID() != "node-025" {
		t.Errorf("unexpected node naming: %v ... %v", nodes[0].ID(), nodes[24].ID())
	}
}

func TestUniformPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(0) did not panic")
		}
	}()
	Uniform(0, 1, 1)
}

func TestOnlineToggleAffectsTotals(t *testing.T) {
	c := Uniform(4, 1000, 1000)
	if !c.SetOnline("node-002", false) {
		t.Fatal("SetOnline returned false for existing node")
	}
	if c.SetOnline("nope", false) {
		t.Error("SetOnline returned true for missing node")
	}
	if got := len(c.OnlineNodes()); got != 3 {
		t.Errorf("OnlineNodes = %d, want 3", got)
	}
	if n, ok := c.Node("node-002"); !ok || n.Online() {
		t.Errorf("offline node lookup = %v, %v; want it still a member, offline", n, ok)
	}
	c.SetOnline("node-002", true)
	if got := len(c.OnlineNodes()); got != 4 {
		t.Errorf("OnlineNodes after recovery = %d, want 4", got)
	}
}

func TestIterationOrderIsStable(t *testing.T) {
	c := New()
	ids := []NodeID{"zeta", "alpha", "mid"}
	for _, id := range ids {
		c.Add(id, 1, 1)
	}
	nodes := c.OnlineNodes()
	for i, n := range nodes {
		if n.ID() != ids[i] {
			t.Fatalf("OnlineNodes()[%d] = %v, want insertion order %v", i, n.ID(), ids[i])
		}
	}
}
