// Package cluster models the physical substrate the paper places
// workloads on: a set of nodes, each with a CPU power capacity (MHz)
// and a memory capacity (MB).
//
// The cluster is purely topological — which machines exist, how big they
// are, and whether they are online. Who occupies them is tracked by the
// virtualization substrate (internal/vm); what should occupy them is
// decided by the placement controller (internal/core). Keeping those
// concerns out of this package lets failure injection (nodes going
// offline mid-run) be expressed here without entangling VM lifecycle.
package cluster

import (
	"fmt"

	"slaplace/internal/res"
)

// NodeID identifies a node within a cluster.
type NodeID string

// Node is one machine. Fields are immutable after construction except
// the online flag, which failure injection toggles.
type Node struct {
	id     NodeID
	cpu    res.CPU    // total CPU power, e.g. 4 processors × 4500 MHz
	mem    res.Memory // total RAM
	online bool
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// CPU returns the node's total CPU power.
func (n *Node) CPU() res.CPU { return n.cpu }

// Mem returns the node's total memory.
func (n *Node) Mem() res.Memory { return n.mem }

// Online reports whether the node is currently usable.
func (n *Node) Online() bool { return n.online }

// String implements fmt.Stringer.
func (n *Node) String() string {
	state := "online"
	if !n.online {
		state = "offline"
	}
	return fmt.Sprintf("%s(%v,%v,%s)", n.id, n.cpu, n.mem, state)
}

// Cluster is a mutable set of nodes. It is not safe for concurrent
// mutation; the simulation is single-threaded by design.
type Cluster struct {
	nodes map[NodeID]*Node
	order []NodeID // insertion order for deterministic iteration
}

// New returns an empty cluster.
func New() *Cluster {
	return &Cluster{nodes: make(map[NodeID]*Node)}
}

// Uniform builds a cluster of n identical online nodes named
// "node-001".."node-N". It panics on non-positive n or capacities —
// those are configuration errors, not runtime conditions.
func Uniform(n int, cpu res.CPU, mem res.Memory) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("cluster.Uniform: non-positive node count %d", n))
	}
	c := New()
	for i := 1; i <= n; i++ {
		if _, err := c.Add(NodeID(fmt.Sprintf("node-%03d", i)), cpu, mem); err != nil {
			panic(err) // unreachable: names are unique, capacities validated once
		}
	}
	return c
}

// Add registers a new online node. It returns an error if the ID is
// already taken or a capacity is non-positive.
func (c *Cluster) Add(id NodeID, cpu res.CPU, mem res.Memory) (*Node, error) {
	if id == "" {
		return nil, fmt.Errorf("cluster: empty node ID")
	}
	if _, dup := c.nodes[id]; dup {
		return nil, fmt.Errorf("cluster: duplicate node %q", id)
	}
	if cpu <= 0 {
		return nil, fmt.Errorf("cluster: node %q has non-positive CPU %v", id, cpu)
	}
	if mem <= 0 {
		return nil, fmt.Errorf("cluster: node %q has non-positive memory %v", id, mem)
	}
	n := &Node{id: id, cpu: cpu, mem: mem, online: true}
	c.nodes[id] = n
	c.order = append(c.order, id)
	return n, nil
}

// Node looks a node up by ID.
func (c *Cluster) Node(id NodeID) (*Node, bool) {
	n, ok := c.nodes[id]
	return n, ok
}

// SetOnline flips a node's availability; used by failure injection.
// It returns false if the node does not exist.
func (c *Cluster) SetOnline(id NodeID, online bool) bool {
	n, ok := c.nodes[id]
	if !ok {
		return false
	}
	n.online = online
	return true
}

// OnlineNodes returns the online nodes in insertion order.
func (c *Cluster) OnlineNodes() []*Node {
	out := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		if n := c.nodes[id]; n.online {
			out = append(out, n)
		}
	}
	return out
}
