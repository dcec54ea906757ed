// Package vm is the virtualization substrate: the paper's control
// mechanisms — start, stop, suspend, resume, live-migrate, and CPU-share
// adjustment of virtual machines — with realistic latencies and rigid
// per-node memory accounting.
//
// The placement controller never touches nodes directly; every decision
// it makes is enacted through this package, exactly as the paper's
// prototype acted through its virtualization manager. Latencies matter:
// a suspend that takes tens of seconds and a migration that moves
// gigabytes over a finite link are why the controller must weigh
// placement churn against allocation quality.
//
// Scheduling model. Each node divides its CPU power among resident
// running VMs proportionally to their assigned shares, capping the sum
// at the node's capacity (a cap-based, non-work-conserving scheduler:
// the controller is the entity that decides how much CPU each VM may
// use, so unused headroom stays idle rather than leaking to whoever is
// resident — this keeps observed behaviour equal to planned behaviour).
// A VM's effective rate is therefore
//
//	rate(vm) = share(vm) × min(1, nodeCPU / Σ shares on node).
package vm

import (
	"fmt"
	"math"
	"sort"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/sim"
)

// ID identifies a virtual machine.
type ID string

// State is a VM lifecycle state.
type State int

// VM lifecycle states. Transitions:
//
//	Provision: (new) -> Provisioning -> Running
//	Suspend:   Running -> Suspending -> Suspended   (memory freed at end)
//	Resume:    Suspended -> Resuming -> Running     (memory reserved at start)
//	Migrate:   Running -> Migrating -> Running      (dual memory during copy)
//	Stop:      any non-Stopped -> Stopped
//	Evict:     resident states -> Suspended         (failure path, instantaneous)
const (
	Provisioning State = iota
	Running
	Suspending
	Suspended
	Resuming
	Migrating
	Stopped
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Provisioning:
		return "provisioning"
	case Running:
		return "running"
	case Suspending:
		return "suspending"
	case Suspended:
		return "suspended"
	case Resuming:
		return "resuming"
	case Migrating:
		return "migrating"
	case Stopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Costs parameterizes actuation latencies.
type Costs struct {
	// StartLatency is the seconds between Provision and Running.
	StartLatency float64 `json:"startLatency"`
	// SuspendLatency is the seconds a suspend-to-disk takes; progress
	// stops immediately, memory is released when it completes.
	SuspendLatency float64 `json:"suspendLatency"`
	// ResumeLatency is the seconds to restore a suspended image.
	ResumeLatency float64 `json:"resumeLatency"`
	// MigrateMBps is the copy bandwidth for live migration, MB/s.
	// Migration duration = mem / MigrateMBps, floored by MigrateFloor.
	MigrateMBps float64 `json:"migrateMBps"`
	// MigrateFloor is the minimum migration duration in seconds.
	MigrateFloor float64 `json:"migrateFloor"`
}

// DefaultCosts returns latencies typical of 2008-era virtualization:
// ~30 s boots, ~20 s suspends/resumes, 1 Gbit/s migration links.
func DefaultCosts() Costs {
	return Costs{
		StartLatency:   30,
		SuspendLatency: 20,
		ResumeLatency:  20,
		MigrateMBps:    125, // 1 Gbit/s
		MigrateFloor:   5,
	}
}

// migrationSeconds computes the copy time for a VM image of size mem.
func (c Costs) migrationSeconds(mem res.Memory) float64 {
	if c.MigrateMBps <= 0 {
		return c.MigrateFloor
	}
	return math.Max(c.MigrateFloor, float64(mem)/c.MigrateMBps)
}

// VM is one virtual machine. All fields are managed by the Manager.
type VM struct {
	id     ID
	mem    res.Memory
	maxCPU res.CPU
	share  res.CPU
	rate   res.CPU
	state  State
	node   cluster.NodeID // current host; "" when Suspended/Stopped
	dst    cluster.NodeID // migration target while Migrating
	op     *sim.Event     // in-flight transition completion event
}

// ID returns the VM's identifier.
func (v *VM) ID() ID { return v.id }

// Mem returns the VM's memory footprint.
func (v *VM) Mem() res.Memory { return v.mem }

// MaxCPU returns the VM's maximum useful CPU (its speed cap).
func (v *VM) MaxCPU() res.CPU { return v.maxCPU }

// Share returns the CPU share currently assigned by the controller.
func (v *VM) Share() res.CPU { return v.share }

// Rate returns the effective CPU rate granted by the node scheduler.
// Zero unless the VM is Running or Migrating.
func (v *VM) Rate() res.CPU { return v.rate }

// State returns the lifecycle state.
func (v *VM) State() State { return v.state }

// Node returns the current host node ("" when none).
func (v *VM) Node() cluster.NodeID { return v.node }

// MigrationTarget returns the destination while Migrating ("" otherwise).
func (v *VM) MigrationTarget() cluster.NodeID { return v.dst }

// RateListener observes effective-rate changes. The batch runtime uses
// it to re-plan job completion events when shares move.
type RateListener func(id ID, rate res.CPU)

// EvictListener observes forced evictions (node failure).
type EvictListener func(id ID, node cluster.NodeID)

// Counters tallies actuation operations; the churn benchmarks read it.
type Counters struct {
	Provisions int
	Suspends   int
	Resumes    int
	Migrations int
	Stops      int
	Evictions  int
}

// Manager owns every VM and enforces capacity and lifecycle rules.
type Manager struct {
	eng     *sim.Engine
	cl      *cluster.Cluster
	costs   Costs
	vms     map[ID]*VM
	byNode  map[cluster.NodeID]map[ID]*VM // residents (incl. reserved dst during migration)
	usedMem map[cluster.NodeID]res.Memory
	onRate  []RateListener
	onEvict []EvictListener
	count   Counters
}

// NewManager returns a manager for the given engine and cluster.
func NewManager(eng *sim.Engine, cl *cluster.Cluster, costs Costs) *Manager {
	return &Manager{
		eng:     eng,
		cl:      cl,
		costs:   costs,
		vms:     make(map[ID]*VM),
		byNode:  make(map[cluster.NodeID]map[ID]*VM),
		usedMem: make(map[cluster.NodeID]res.Memory),
	}
}

// AddRateListener registers an effective-rate observer. Multiple
// workload runtimes share one manager, so listeners accumulate; each
// runtime ignores VMs it does not own.
func (m *Manager) AddRateListener(l RateListener) {
	if l == nil {
		panic("vm: nil rate listener")
	}
	m.onRate = append(m.onRate, l)
}

// AddEvictListener registers a forced-eviction observer.
func (m *Manager) AddEvictListener(l EvictListener) {
	if l == nil {
		panic("vm: nil evict listener")
	}
	m.onEvict = append(m.onEvict, l)
}

// notifyRate fans a rate change out to every listener.
func (m *Manager) notifyRate(id ID, rate res.CPU) {
	for _, l := range m.onRate {
		l(id, rate)
	}
}

// notifyEvict fans an eviction out to every listener.
func (m *Manager) notifyEvict(id ID, node cluster.NodeID) {
	for _, l := range m.onEvict {
		l(id, node)
	}
}

// Counters returns a copy of the operation tallies.
func (m *Manager) Counters() Counters { return m.count }

// VM looks up a VM by ID.
func (m *Manager) VM(id ID) (*VM, bool) {
	v, ok := m.vms[id]
	return v, ok
}

// UsedMem returns the reserved memory on a node.
func (m *Manager) UsedMem(node cluster.NodeID) res.Memory { return m.usedMem[node] }

// FreeMem returns the unreserved memory on a node (0 for unknown nodes).
func (m *Manager) FreeMem(node cluster.NodeID) res.Memory {
	n, ok := m.cl.Node(node)
	if !ok {
		return 0
	}
	return n.Mem() - m.usedMem[node]
}

// Residents returns the VMs resident on a node (any state that reserves
// memory there, including an inbound migration), sorted by ID. The
// sorted order matters: listener callbacks fired while iterating
// residents must be deterministic for runs to be reproducible.
func (m *Manager) Residents(node cluster.NodeID) []*VM {
	out := make([]*VM, 0, len(m.byNode[node]))
	for _, v := range m.byNode[node] {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// reserve places v's memory claim on node, registering residency.
func (m *Manager) reserve(node cluster.NodeID, v *VM) error {
	n, ok := m.cl.Node(node)
	if !ok {
		return fmt.Errorf("vm: unknown node %q", node)
	}
	if !n.Online() {
		return fmt.Errorf("vm: node %q is offline", node)
	}
	if m.usedMem[node]+v.mem > n.Mem() {
		return fmt.Errorf("vm: node %q memory exhausted: %v used + %v needed > %v",
			node, m.usedMem[node], v.mem, n.Mem())
	}
	if m.byNode[node] == nil {
		m.byNode[node] = make(map[ID]*VM)
	}
	m.byNode[node][v.id] = v
	m.usedMem[node] += v.mem
	return nil
}

// release drops v's memory claim on node.
func (m *Manager) release(node cluster.NodeID, v *VM) {
	if m.byNode[node] == nil {
		return
	}
	if _, ok := m.byNode[node][v.id]; !ok {
		return
	}
	delete(m.byNode[node], v.id)
	m.usedMem[node] -= v.mem
}

// Provision creates a VM on a node with the given footprint, speed cap
// and initial share. The VM becomes Running after the start latency.
func (m *Manager) Provision(id ID, node cluster.NodeID, mem res.Memory, maxCPU, share res.CPU) error {
	if id == "" {
		return fmt.Errorf("vm: empty VM ID")
	}
	if _, dup := m.vms[id]; dup {
		return fmt.Errorf("vm: duplicate VM %q", id)
	}
	if mem <= 0 || maxCPU <= 0 {
		return fmt.Errorf("vm: %q has non-positive capacity (mem %v, maxCPU %v)", id, mem, maxCPU)
	}
	v := &VM{id: id, mem: mem, maxCPU: maxCPU, state: Provisioning, node: node}
	v.share = res.Clamp(share, 0, maxCPU)
	if err := m.reserve(node, v); err != nil {
		return err
	}
	m.vms[id] = v
	m.count.Provisions++
	v.op = m.eng.After(m.costs.StartLatency, "vm-start/"+string(id), func(sim.Time) {
		v.op = nil
		v.state = Running
		m.recomputeNode(v.node)
	})
	return nil
}

// SetShare changes a VM's CPU share. Legal while Provisioning (applied
// at start), Running, or Migrating.
func (m *Manager) SetShare(id ID, share res.CPU) error {
	v, ok := m.vms[id]
	if !ok {
		return fmt.Errorf("vm: unknown VM %q", id)
	}
	switch v.state {
	case Provisioning, Running, Migrating:
		v.share = res.Clamp(share, 0, v.maxCPU)
		m.recomputeNode(v.node)
		return nil
	default:
		return fmt.Errorf("vm: SetShare on %q in state %v", id, v.state)
	}
}

// Suspend checkpoints a running VM to disk. Progress stops immediately;
// node memory is released when the suspend completes.
func (m *Manager) Suspend(id ID) error {
	v, ok := m.vms[id]
	if !ok {
		return fmt.Errorf("vm: unknown VM %q", id)
	}
	if v.state != Running {
		return fmt.Errorf("vm: Suspend on %q in state %v", id, v.state)
	}
	v.state = Suspending
	m.count.Suspends++
	m.recomputeNode(v.node) // rate drops to zero now
	v.op = m.eng.After(m.costs.SuspendLatency, "vm-suspend/"+string(id), func(sim.Time) {
		v.op = nil
		m.release(v.node, v)
		node := v.node
		v.node = ""
		v.state = Suspended
		m.recomputeNode(node)
	})
	return nil
}

// Resume restores a suspended VM onto a node (possibly different from
// where it was suspended — that is how the controller relocates
// suspended work without a live migration).
func (m *Manager) Resume(id ID, node cluster.NodeID, share res.CPU) error {
	v, ok := m.vms[id]
	if !ok {
		return fmt.Errorf("vm: unknown VM %q", id)
	}
	if v.state != Suspended {
		return fmt.Errorf("vm: Resume on %q in state %v", id, v.state)
	}
	if err := m.reserve(node, v); err != nil {
		return err
	}
	v.node = node
	v.state = Resuming
	v.share = res.Clamp(share, 0, v.maxCPU)
	m.count.Resumes++
	v.op = m.eng.After(m.costs.ResumeLatency, "vm-resume/"+string(id), func(sim.Time) {
		v.op = nil
		v.state = Running
		m.recomputeNode(v.node)
	})
	return nil
}

// Migrate live-migrates a running VM to dst. The VM keeps running at
// the source during the copy; memory is reserved on both nodes until
// the copy finishes.
func (m *Manager) Migrate(id ID, dst cluster.NodeID) error {
	v, ok := m.vms[id]
	if !ok {
		return fmt.Errorf("vm: unknown VM %q", id)
	}
	if v.state != Running {
		return fmt.Errorf("vm: Migrate on %q in state %v", id, v.state)
	}
	if dst == v.node {
		return fmt.Errorf("vm: Migrate of %q to its current node %q", id, dst)
	}
	if err := m.reserve(dst, v); err != nil {
		return err
	}
	v.state = Migrating
	v.dst = dst
	m.count.Migrations++
	dur := m.costs.migrationSeconds(v.mem)
	v.op = m.eng.After(dur, "vm-migrate/"+string(id), func(sim.Time) {
		v.op = nil
		src := v.node
		m.release(src, v)
		v.node = v.dst
		v.dst = ""
		v.state = Running
		m.recomputeNode(src)
		m.recomputeNode(v.node)
	})
	return nil
}

// Stop terminates a VM in any live state, releasing all reservations.
func (m *Manager) Stop(id ID) error {
	v, ok := m.vms[id]
	if !ok {
		return fmt.Errorf("vm: unknown VM %q", id)
	}
	if v.state == Stopped {
		return fmt.Errorf("vm: Stop on already stopped %q", id)
	}
	if v.op != nil {
		m.eng.Cancel(v.op)
		v.op = nil
	}
	if v.node != "" {
		m.release(v.node, v)
	}
	if v.dst != "" {
		m.release(v.dst, v)
	}
	src := v.node
	v.node, v.dst = "", ""
	v.state = Stopped
	m.zeroRate(v)
	m.count.Stops++
	if src != "" {
		m.recomputeNode(src)
	}
	return nil
}

// zeroRate clears a VM's effective rate once it stops executing outside
// the per-node recompute path (Stop, ForceEvict), notifying the
// listener so workload runtimes halt progress integration.
func (m *Manager) zeroRate(v *VM) {
	if v.rate == 0 {
		return
	}
	v.rate = 0
	m.notifyRate(v.id, 0)
}

// Forget removes a Stopped VM from the manager's books.
func (m *Manager) Forget(id ID) error {
	v, ok := m.vms[id]
	if !ok {
		return fmt.Errorf("vm: unknown VM %q", id)
	}
	if v.state != Stopped {
		return fmt.Errorf("vm: Forget on %q in state %v", id, v.state)
	}
	delete(m.vms, id)
	return nil
}

// ForceEvict simulates abrupt loss of a node: every resident VM is
// kicked to Suspended instantly (in-flight operations are abandoned)
// and the eviction listener is told. Inbound migrations collapse back
// to their source. The progress implications (checkpoint vs. restart)
// are the workload runtime's business, signalled via the listener.
func (m *Manager) ForceEvict(node cluster.NodeID) {
	for _, v := range m.Residents(node) {
		if v.op != nil {
			m.eng.Cancel(v.op)
			v.op = nil
		}
		if v.state == Migrating {
			// The copy is abandoned; whichever side survives keeps the VM.
			if v.dst == node {
				// Destination died: stay running at source.
				m.release(node, v)
				v.dst = ""
				v.state = Running
				continue
			}
			// Source died: the incomplete copy is useless.
			m.release(v.dst, v)
			v.dst = ""
		}
		m.release(node, v)
		v.node = ""
		v.state = Suspended
		m.zeroRate(v)
		m.count.Evictions++
		m.notifyEvict(v.id, node)
	}
	m.recomputeNode(node)
}

// recomputeNode refreshes effective rates for all VMs hosted on node
// and notifies the rate listener about every change.
func (m *Manager) recomputeNode(node cluster.NodeID) {
	if node == "" {
		return
	}
	n, ok := m.cl.Node(node)
	if !ok {
		return
	}
	// Sum in sorted-resident order: float addition is not associative,
	// so summing in map iteration order would make the overload scale
	// — and every downstream response time — vary by an ulp per run.
	residents := m.Residents(node)
	var total res.CPU
	for _, v := range residents {
		if m.consumesCPU(v, node) {
			total += v.share
		}
	}
	scale := 1.0
	if total > n.CPU() && total > 0 {
		scale = float64(n.CPU()) / float64(total)
	}
	// Deterministic listener order: rate listeners schedule events
	// (job completion re-planning), and event tie-breaks are FIFO, so
	// the notification order must not depend on map iteration.
	for _, v := range residents {
		var newRate res.CPU
		if m.consumesCPU(v, node) {
			newRate = res.CPU(float64(v.share) * scale)
		}
		if !res.AlmostEqual(newRate, v.rate) || (newRate == 0) != (v.rate == 0) {
			v.rate = newRate
			m.notifyRate(v.id, newRate)
		}
	}
}

// consumesCPU reports whether v executes on node right now: Running
// VMs hosted there, and Migrating VMs whose *source* is there (live
// migration keeps the source executing until cut-over).
func (m *Manager) consumesCPU(v *VM, node cluster.NodeID) bool {
	switch v.state {
	case Running:
		return v.node == node
	case Migrating:
		return v.node == node // dst reservation holds memory, not CPU
	default:
		return false
	}
}

// TotalShare returns the sum of CPU shares of VMs executing on a node,
// accumulated in sorted-resident order for bit-reproducibility.
func (m *Manager) TotalShare(node cluster.NodeID) res.CPU {
	var total res.CPU
	for _, v := range m.Residents(node) {
		if m.consumesCPU(v, node) {
			total += v.share
		}
	}
	return total
}

// RunningOn returns IDs of VMs executing on node (Running or
// outbound-Migrating), sorted by ID.
func (m *Manager) RunningOn(node cluster.NodeID) []ID {
	var out []ID
	for _, v := range m.byNode[node] {
		if m.consumesCPU(v, node) {
			out = append(out, v.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
