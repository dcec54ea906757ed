package vm

import (
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/sim"
)

// rig builds a 3-node test cluster with an engine and manager.
func rig(t *testing.T, costs Costs) (*sim.Engine, *cluster.Cluster, *Manager) {
	t.Helper()
	eng := sim.New()
	cl := cluster.Uniform(3, 18000, 16000)
	return eng, cl, NewManager(eng, cl, costs)
}

func TestProvisionLifecycle(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	if err := m.Provision("j1", "node-001", 5000, 4500, 4500); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	v, ok := m.VM("j1")
	if !ok || v.State() != Provisioning {
		t.Fatalf("VM missing or wrong state: %v", v.State())
	}
	if m.usedMem["node-001"] != 5000 {
		t.Errorf("memory not reserved at provision: %v", m.usedMem["node-001"])
	}
	if v.Rate() != 0 {
		t.Errorf("rate before boot = %v, want 0", v.Rate())
	}
	eng.RunUntil(100)
	if v.State() != Running {
		t.Errorf("state after boot = %v, want running", v.State())
	}
	if v.Rate() != 4500 {
		t.Errorf("rate after boot = %v, want 4500", v.Rate())
	}
}

func TestProvisionValidation(t *testing.T) {
	_, _, m := rig(t, DefaultCosts())
	cases := []struct {
		name string
		f    func() error
	}{
		{"empty id", func() error { return m.Provision("", "node-001", 1, 1, 1) }},
		{"unknown node", func() error { return m.Provision("a", "nope", 1, 1, 1) }},
		{"zero mem", func() error { return m.Provision("a", "node-001", 0, 1, 1) }},
		{"zero cpu", func() error { return m.Provision("a", "node-001", 1, 0, 1) }},
	}
	for _, c := range cases {
		if c.f() == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if err := m.Provision("a", "node-001", 1, 1, 1); err != nil {
		t.Fatalf("valid provision failed: %v", err)
	}
	if err := m.Provision("a", "node-002", 1, 1, 1); err == nil {
		t.Error("duplicate id accepted")
	}
}

func TestMemoryExhaustion(t *testing.T) {
	_, _, m := rig(t, DefaultCosts())
	// Node has 16000 MB; three 5000 MB VMs fit, a fourth must not.
	for i, id := range []ID{"a", "b", "c"} {
		if err := m.Provision(id, "node-001", 5000, 4500, 4500); err != nil {
			t.Fatalf("VM %d rejected: %v", i, err)
		}
	}
	if err := m.Provision("d", "node-001", 5000, 4500, 4500); err == nil {
		t.Error("fourth 5000MB VM fit into 16000MB node")
	}
	if m.usedMem["node-001"] != 15000 {
		t.Errorf("used memory = %v, want 15000", m.usedMem["node-001"])
	}
}

func TestProportionalScheduler(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	// Node CPU 18000. Shares 12000+12000 = 24000 -> scale 0.75.
	m.Provision("a", "node-001", 1000, 18000, 12000)
	m.Provision("b", "node-001", 1000, 18000, 12000)
	eng.RunUntil(100)
	a, _ := m.VM("a")
	b, _ := m.VM("b")
	if !res.AlmostEqual(a.Rate(), 9000) || !res.AlmostEqual(b.Rate(), 9000) {
		t.Errorf("rates = %v, %v; want 9000 each", a.Rate(), b.Rate())
	}
	// Dropping one share to zero gives the other its full (capped) share.
	if err := m.SetShare("a", 0); err != nil {
		t.Fatalf("SetShare: %v", err)
	}
	if !res.AlmostEqual(b.Rate(), 12000) {
		t.Errorf("rate after rebalance = %v, want 12000", b.Rate())
	}
	if a.Rate() != 0 {
		t.Errorf("zero-share rate = %v, want 0", a.Rate())
	}
}

func TestShareClampedToMaxCPU(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	m.Provision("a", "node-001", 1000, 4500, 99999)
	eng.RunUntil(100)
	a, _ := m.VM("a")
	if a.Share() != 4500 {
		t.Errorf("share = %v, want clamp at 4500", a.Share())
	}
}

func TestRateListenerFires(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	got := map[ID]res.CPU{}
	m.AddRateListener(func(id ID, rate res.CPU) { got[id] = rate })
	m.Provision("a", "node-001", 1000, 4500, 4500)
	eng.RunUntil(100)
	if got["a"] != 4500 {
		t.Errorf("listener saw %v, want 4500", got["a"])
	}
	m.SetShare("a", 2000)
	if got["a"] != 2000 {
		t.Errorf("listener after SetShare saw %v, want 2000", got["a"])
	}
}

func TestSuspendReleasesMemoryAfterLatency(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	m.Provision("a", "node-001", 5000, 4500, 4500)
	eng.RunUntil(100)
	if err := m.Suspend("a"); err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	a, _ := m.VM("a")
	if a.State() != Suspending {
		t.Fatalf("state = %v, want suspending", a.State())
	}
	if a.Rate() != 0 {
		t.Errorf("rate during suspend = %v, want 0 (progress stops immediately)", a.Rate())
	}
	if m.usedMem["node-001"] != 5000 {
		t.Errorf("memory released too early")
	}
	eng.RunUntil(200)
	if a.State() != Suspended || a.Node() != "" {
		t.Errorf("after suspend: state=%v node=%q", a.State(), a.Node())
	}
	if m.usedMem["node-001"] != 0 {
		t.Errorf("memory not released after suspend: %v", m.usedMem["node-001"])
	}
}

func TestResumeOnDifferentNode(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	m.Provision("a", "node-001", 5000, 4500, 4500)
	eng.RunUntil(100)
	m.Suspend("a")
	eng.RunUntil(200)
	if err := m.Resume("a", "node-002", 3000); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if m.usedMem["node-002"] != 5000 {
		t.Errorf("memory not reserved at resume start")
	}
	eng.RunUntil(300)
	a, _ := m.VM("a")
	if a.State() != Running || a.Node() != "node-002" {
		t.Errorf("after resume: state=%v node=%v", a.State(), a.Node())
	}
	if !res.AlmostEqual(a.Rate(), 3000) {
		t.Errorf("rate after resume = %v, want 3000", a.Rate())
	}
}

func TestResumeRequiresMemory(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	m.Provision("a", "node-001", 5000, 4500, 4500)
	m.Provision("big", "node-002", 14000, 4500, 4500)
	eng.RunUntil(100)
	m.Suspend("a")
	eng.RunUntil(200)
	if err := m.Resume("a", "node-002", 4500); err == nil {
		t.Error("resume onto full node succeeded")
	}
	a, _ := m.VM("a")
	if a.State() != Suspended {
		t.Errorf("failed resume changed state to %v", a.State())
	}
}

func TestMigrationDualOccupancyAndCutOver(t *testing.T) {
	costs := DefaultCosts()
	eng, _, m := rig(t, costs)
	m.Provision("a", "node-001", 5000, 4500, 4500)
	eng.RunUntil(100)
	if err := m.Migrate("a", "node-002"); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	a, _ := m.VM("a")
	if a.State() != Migrating || a.dst != "node-002" {
		t.Fatalf("state=%v target=%v", a.State(), a.dst)
	}
	if m.usedMem["node-001"] != 5000 || m.usedMem["node-002"] != 5000 {
		t.Error("dual occupancy not enforced during copy")
	}
	if a.Rate() != 4500 {
		t.Errorf("live migration should keep source running; rate=%v", a.Rate())
	}
	// 5000 MB at 125 MB/s = 40 s.
	eng.RunUntil(100 + 39)
	if a.State() != Migrating {
		t.Error("migration completed too early")
	}
	eng.RunUntil(100 + 41)
	if a.State() != Running || a.Node() != "node-002" {
		t.Errorf("after migration: state=%v node=%v", a.State(), a.Node())
	}
	if m.usedMem["node-001"] != 0 {
		t.Error("source memory not released after migration")
	}
}

func TestMigrateValidation(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	m.Provision("a", "node-001", 5000, 4500, 4500)
	eng.RunUntil(100)
	if err := m.Migrate("a", "node-001"); err == nil {
		t.Error("self-migration accepted")
	}
	if err := m.Migrate("nope", "node-002"); err == nil {
		t.Error("migrating unknown VM accepted")
	}
	m.Suspend("a")
	if err := m.Migrate("a", "node-002"); err == nil {
		t.Error("migrating suspending VM accepted")
	}
}

func TestStopCancelsInFlightOps(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	m.Provision("a", "node-001", 5000, 4500, 4500)
	eng.RunUntil(100)
	m.Migrate("a", "node-002")
	if err := m.Stop("a"); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if m.usedMem["node-001"] != 0 || m.usedMem["node-002"] != 0 {
		t.Error("Stop left memory reserved")
	}
	eng.RunUntil(1000)
	a, _ := m.VM("a")
	if a.State() != Stopped {
		t.Errorf("state = %v after Stop + drain, want stopped", a.State())
	}
	if err := m.Stop("a"); err == nil {
		t.Error("double Stop succeeded")
	}
	if err := m.Forget("a"); err != nil {
		t.Errorf("Forget: %v", err)
	}
	if _, ok := m.VM("a"); ok {
		t.Error("VM still known after Forget")
	}
}

func TestForceEvictSuspendsResidents(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	var evicted []ID
	m.AddEvictListener(func(id ID, node cluster.NodeID) { evicted = append(evicted, id) })
	m.Provision("a", "node-001", 5000, 4500, 4500)
	m.Provision("b", "node-001", 5000, 4500, 4500)
	eng.RunUntil(100)
	m.ForceEvict("node-001")
	if len(evicted) != 2 {
		t.Fatalf("evicted %d VMs, want 2", len(evicted))
	}
	for _, id := range []ID{"a", "b"} {
		v, _ := m.VM(id)
		if v.State() != Suspended || v.Node() != "" {
			t.Errorf("%v: state=%v node=%q", id, v.State(), v.Node())
		}
	}
	if m.usedMem["node-001"] != 0 {
		t.Error("evicted node still has memory reserved")
	}
}

func TestForceEvictMigrationDestination(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	m.Provision("a", "node-001", 5000, 4500, 4500)
	eng.RunUntil(100)
	m.Migrate("a", "node-002")
	m.ForceEvict("node-002") // destination dies mid-copy
	a, _ := m.VM("a")
	if a.State() != Running || a.Node() != "node-001" {
		t.Errorf("VM should survive at source: state=%v node=%v", a.State(), a.Node())
	}
	if m.usedMem["node-002"] != 0 {
		t.Error("dead destination keeps reservation")
	}
	eng.RunUntil(1000)
	if a.State() != Running || a.Node() != "node-001" {
		t.Errorf("abandoned migration later fired: state=%v node=%v", a.State(), a.Node())
	}
}

func TestForceEvictMigrationSource(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	m.Provision("a", "node-001", 5000, 4500, 4500)
	eng.RunUntil(100)
	m.Migrate("a", "node-002")
	m.ForceEvict("node-001") // source dies mid-copy
	a, _ := m.VM("a")
	if a.State() != Suspended {
		t.Errorf("VM should be suspended when source dies: %v", a.State())
	}
	if m.usedMem["node-001"] != 0 || m.usedMem["node-002"] != 0 {
		t.Error("reservations leaked after source eviction")
	}
}

func TestCountersTally(t *testing.T) {
	eng, _, m := rig(t, DefaultCosts())
	m.Provision("a", "node-001", 5000, 4500, 4500)
	eng.RunUntil(100)
	m.Migrate("a", "node-002")
	eng.RunUntil(200)
	m.Suspend("a")
	eng.RunUntil(300)
	m.Resume("a", "node-001", 4500)
	eng.RunUntil(400)
	m.Stop("a")
	c := m.Counters()
	if c.Provisions != 1 || c.Migrations != 1 || c.Suspends != 1 || c.Resumes != 1 || c.Stops != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestOfflineNodeRejectsPlacement(t *testing.T) {
	_, cl, m := rig(t, DefaultCosts())
	cl.SetOnline("node-001", false)
	if err := m.Provision("a", "node-001", 1000, 4500, 4500); err == nil {
		t.Error("provision on offline node succeeded")
	}
}

func TestResidentsSortedDeterministically(t *testing.T) {
	eng, _, m := rig(t, Costs{})
	// Insert in non-sorted order.
	for _, id := range []ID{"zeta", "alpha", "mid"} {
		if err := m.Provision(id, "node-001", 1000, 4500, 4500); err != nil {
			t.Fatal(err)
		}
	}
	for eng.Step() {
	}
	res := m.Residents("node-001")
	if len(res) != 3 || res[0].id != "alpha" || res[1].id != "mid" || res[2].id != "zeta" {
		t.Errorf("Residents not sorted: %v %v %v", res[0].id, res[1].id, res[2].id)
	}
}
