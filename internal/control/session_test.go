package control

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"slaplace/api"
	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/shard"
	"slaplace/internal/workload/batch"
)

// steadyState builds a crowded snapshot whose discrete placement
// provably cannot change cycle over cycle (the carry-over tier's
// precondition): every node hosts a web instance plus two running
// jobs, and the pending backlog fits neither free memory nor any
// single eviction.
func steadyState(t *testing.T, nodes, jobs int) *core.State {
	t.Helper()
	model, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		t.Fatal(err)
	}
	st := &core.State{Now: 50000}
	instances := map[cluster.NodeID]res.CPU{}
	for i := 0; i < nodes; i++ {
		id := cluster.NodeID(fmt.Sprintf("n%03d", i))
		st.Nodes = append(st.Nodes, core.NodeInfo{ID: id, CPU: 18000, Mem: 16000})
		instances[id] = 150
	}
	running := 2 * nodes
	if running > jobs {
		running = jobs
	}
	for i := 0; i < jobs; i++ {
		info := core.JobInfo{
			ID:        batch.JobID(fmt.Sprintf("j%04d", i)),
			State:     batch.Pending,
			Remaining: res.Work(4500 * float64(5000+i*37)),
			MaxSpeed:  4500,
			Mem:       12000,
			Goal:      60000 + float64(i*11),
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
	st.Apps = []core.AppInfo{{
		ID: "web", Lambda: 65, RTGoal: 3.0, Model: model,
		InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: nodes,
		Instances: instances,
	}}
	return st
}

func wireSnapshot(t *testing.T, st *core.State) *api.Snapshot {
	t.Helper()
	snap, err := api.FromCoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSessionProposeMatchesController: the wire path must plan exactly
// what the controller plans in process — same digest, cycle for cycle.
func TestSessionProposeMatchesController(t *testing.T) {
	st := steadyState(t, 4, 20)
	ref := core.New(core.DefaultConfig())
	wantPlan := ref.Plan(st)

	sess, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sess.Propose(wireSnapshot(t, st))
	if err != nil {
		t.Fatal(err)
	}
	want, err := api.FromCorePlan(st, wantPlan)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Actions) != len(want.Actions) {
		t.Fatalf("wire plan has %d actions, controller %d", len(got.Actions), len(want.Actions))
	}
	for i := range got.Actions {
		if got.Actions[i] != want.Actions[i] {
			t.Errorf("action %d: %+v != %+v", i, got.Actions[i], want.Actions[i])
		}
	}
	if sess.Cycles() != 1 {
		t.Errorf("cycles = %d", sess.Cycles())
	}
}

// TestSessionReuseTiersAcrossProposes: incremental reuse must survive
// from one Propose to the next — an identical snapshot replays, a
// drifted one carries over, and the stats say so.
func TestSessionReuseTiersAcrossProposes(t *testing.T) {
	st := steadyState(t, 4, 20)
	sess, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if !sess.TracksStats() {
		t.Fatal("placement controller session does not track stats")
	}
	if _, _, err := sess.Propose(wireSnapshot(t, st)); err != nil {
		t.Fatal(err)
	}
	// Same snapshot again: replay tier.
	_, stats, err := sess.Propose(wireSnapshot(t, st))
	if err != nil {
		t.Fatal(err)
	}
	if stats.LastMode != core.PlanReplayed {
		t.Errorf("identical snapshot planned in mode %v, want replayed", stats.LastMode)
	}
	// Demand drift only: carry-over tier.
	st.Apps[0].Lambda = 66
	_, stats, err = sess.Propose(wireSnapshot(t, st))
	if err != nil {
		t.Fatal(err)
	}
	if stats.LastMode != core.PlanIncremental {
		t.Errorf("drifted snapshot planned in mode %v, want incremental", stats.LastMode)
	}
}

// TestSessionProposeDelta: a delta request patches the retained state
// and plans identically to re-sending the full snapshot.
func TestSessionProposeDelta(t *testing.T) {
	st := steadyState(t, 4, 20)
	full, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	delta, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}

	// Deltas before any snapshot are rejected.
	if _, _, err := delta.ProposeDelta(&api.SnapshotDelta{Now: 1}); !errors.Is(err, ErrNoBaseSnapshot) {
		t.Errorf("delta without base: %v", err)
	}

	if _, _, err := full.Propose(wireSnapshot(t, st)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := delta.Propose(wireSnapshot(t, st)); err != nil {
		t.Fatal(err)
	}

	// Drift the web demand: full session re-sends everything, delta
	// session patches one app.
	st.Apps[0].Lambda = 70
	wantWire, _, err := full.Propose(wireSnapshot(t, st))
	if err != nil {
		t.Fatal(err)
	}
	drifted := wireSnapshot(t, st)
	d := &api.SnapshotDelta{
		BaseCycle:  delta.Cycles(),
		Now:        st.Now,
		UpsertApps: []api.App{drifted.Apps[0]},
	}
	gotWire, stats, err := delta.ProposeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LastMode != core.PlanIncremental {
		t.Errorf("delta planned in mode %v, want incremental", stats.LastMode)
	}
	if len(gotWire.Actions) != len(wantWire.Actions) {
		t.Fatalf("delta plan %d actions, full plan %d", len(gotWire.Actions), len(wantWire.Actions))
	}
	for i := range gotWire.Actions {
		if gotWire.Actions[i] != wantWire.Actions[i] {
			t.Errorf("action %d: %+v != %+v", i, gotWire.Actions[i], wantWire.Actions[i])
		}
	}

	// A stale base cycle is rejected.
	if _, _, err := delta.ProposeDelta(d); !errors.Is(err, ErrBaseCycleMismatch) {
		t.Errorf("stale base cycle: %v", err)
	}
}

// TestSessionTimeRegression: snapshots must not move backwards.
func TestSessionTimeRegression(t *testing.T) {
	st := steadyState(t, 2, 4)
	sess, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Propose(wireSnapshot(t, st)); err != nil {
		t.Fatal(err)
	}
	st.Now -= 100
	if _, _, err := sess.Propose(wireSnapshot(t, st)); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("backwards snapshot: %v", err)
	}
}

// TestSessionBaselineController: sessions host any controller; stats
// are simply untracked.
func TestSessionBaselineController(t *testing.T) {
	st := steadyState(t, 2, 4)
	sess, err := NewSession(fcfsLike{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.TracksStats() {
		t.Error("stateless controller claims stats")
	}
	plan, stats, err := sess.Propose(wireSnapshot(t, st))
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || stats != (core.PlanStats{}) {
		t.Errorf("baseline session: plan %v stats %+v", plan, stats)
	}
}

// fcfsLike is a trivial deterministic controller for session tests
// (keeps this package free of an internal/baseline import).
type fcfsLike struct{}

func (fcfsLike) Name() string { return "fcfs-like" }

func (fcfsLike) Plan(st *core.State) *core.Plan {
	plan := core.NewPlan()
	ledgers := core.NewLedgers(st.Nodes)
	ledgers.SeedRunning(st)
	shares := map[batch.JobID]res.CPU{}
	for i := range st.Jobs {
		j := &st.Jobs[i]
		if j.State == batch.Running {
			shares[j.ID] = j.Share
			continue
		}
		placed := false
		ledgers.Each(func(l *core.Ledger) {
			if placed || l.FreeMem() < j.Mem {
				return
			}
			plan.Actions = append(plan.Actions, core.StartJob{Job: j.ID, Node: l.Info.ID, Share: j.MaxSpeed})
			l.Occupy(*j)
			shares[j.ID] = j.MaxSpeed
			placed = true
		})
	}
	core.RecordJobUtility(st, plan, shares)
	return plan
}

// TestSessionExportRestore: a checkpointed session, restored onto a
// fresh controller through the wire codec, continues the plan sequence
// byte for byte — the replay and carry-over tiers come back warm — and
// keeps enforcing its cycle counter and time watermark.
func TestSessionExportRestore(t *testing.T) {
	st := steadyState(t, 4, 20)
	ref, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// Three drifting cycles on both sessions.
	for cycle := 0; cycle < 3; cycle++ {
		st.Apps[0].Lambda = 65 + float64(cycle)
		st.Now += 100
		if _, _, err := ref.Propose(wireSnapshot(t, st)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := victim.Propose(wireSnapshot(t, st)); err != nil {
			t.Fatal(err)
		}
	}

	// Checkpoint the victim and push it through the wire codec — what a
	// daemon writes to disk is what another daemon reads back.
	ck, err := victim.Export()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := api.EncodeCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	decoded, err := api.DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(core.New(core.DefaultConfig()), decoded)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Cycles() != victim.Cycles() {
		t.Errorf("restored cycles %d, want %d", restored.Cycles(), victim.Cycles())
	}

	// Identical snapshot: the replay tier is warm.
	_, stats, err := restored.Propose(wireSnapshot(t, st))
	if err != nil {
		t.Fatal(err)
	}
	if stats.LastMode != core.PlanReplayed {
		t.Errorf("restored session planned identical snapshot in mode %v, want replayed", stats.LastMode)
	}
	if _, _, err := ref.Propose(wireSnapshot(t, st)); err != nil {
		t.Fatal(err)
	}

	// Drifting snapshots: byte-identical continuation vs the session
	// that never restarted, through the carry-over tier.
	for cycle := 0; cycle < 3; cycle++ {
		st.Apps[0].Lambda = 70 + float64(cycle)
		st.Now += 100
		got, gotStats, err := restored.Propose(wireSnapshot(t, st))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.Propose(wireSnapshot(t, st))
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Fatalf("cycle %d after restore: plans diverge", cycle)
		}
		if gotStats.LastMode != core.PlanIncremental {
			t.Errorf("cycle %d after restore planned in mode %v, want incremental", cycle, gotStats.LastMode)
		}
	}

	// The time watermark survived: snapshots cannot move backwards.
	st.Now -= 10000
	if _, _, err := restored.Propose(wireSnapshot(t, st)); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("backwards snapshot after restore: %v", err)
	}

	// A delta against the restored base plans fine.
	st.Now += 20000
	drifted := wireSnapshot(t, st)
	if _, _, err := restored.ProposeDelta(&api.SnapshotDelta{
		BaseCycle:  restored.Cycles(),
		Now:        st.Now,
		UpsertApps: []api.App{drifted.Apps[0]},
	}); err != nil {
		t.Fatalf("delta after restore: %v", err)
	}
}

// TestSessionExportReusesWirePlan: Export checkpoints the wire plan the
// last Propose returned — the same value, not a second conversion — and
// that value is what a conversion of the backend's plan would give;
// after a restore it is the checkpoint's own plan until the next cycle
// replaces it.
func TestSessionExportReusesWirePlan(t *testing.T) {
	st := steadyState(t, 4, 20)
	sess, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	exported := func(s *Session) *api.Plan {
		t.Helper()
		ck, err := s.Export()
		if err != nil {
			t.Fatal(err)
		}
		want, err := api.FromCorePlan(s.wire.LastState(), s.wire.LastPlan())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ck.Plan, want) {
			t.Fatalf("checkpointed plan is not the backend's plan:\n got %+v\nwant %+v", ck.Plan, want)
		}
		return ck.Plan
	}
	for cycle := 0; cycle < 3; cycle++ {
		st.Apps[0].Lambda = 65 + float64(cycle)
		st.Now += 100
		plan, _, err := sess.Propose(wireSnapshot(t, st))
		if err != nil {
			t.Fatal(err)
		}
		if exported(sess) != plan {
			t.Fatalf("cycle %d: Export converted the plan again", cycle)
		}
	}

	ck, err := sess.Export()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(core.New(core.DefaultConfig()), ck)
	if err != nil {
		t.Fatal(err)
	}
	if exported(restored) != ck.Plan {
		t.Fatal("restored session does not checkpoint the plan it was given")
	}
	st.Apps[0].Lambda, st.Now = 80, st.Now+100
	plan, _, err := restored.ProposeDelta(&api.SnapshotDelta{
		BaseCycle: restored.Cycles(), Now: st.Now, UpsertApps: wireSnapshot(t, st).Apps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exported(restored) != plan {
		t.Fatal("a cycle after restore did not replace the checkpointed plan")
	}
}

// TestSessionRestoreRejects: the restore path refuses checkpoints it
// cannot faithfully continue.
func TestSessionRestoreRejects(t *testing.T) {
	st := steadyState(t, 4, 12)
	sess, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Propose(wireSnapshot(t, st)); err != nil {
		t.Fatal(err)
	}
	ck, err := sess.Export()
	if err != nil {
		t.Fatal(err)
	}

	// Wrong controller by name.
	if _, err := RestoreSession(fcfsLike{}, ck); err == nil {
		t.Error("restore onto a differently-named controller accepted")
	}
	// Wrong controller by behavior: same checkpoint, name check
	// bypassed — the re-planned digest must catch it.
	anon := *ck
	anon.Controller = ""
	if _, err := RestoreSession(fcfsLike{}, &anon); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("behavioral mismatch: %v", err)
	}
	// Invalid checkpoints are rejected before any planning.
	bad := *ck
	bad.Cycle = -1
	if _, err := RestoreSession(core.New(core.DefaultConfig()), &bad); err == nil {
		t.Error("invalid checkpoint accepted")
	}

	// A fresh, never-planned session round-trips as a counters-only
	// checkpoint.
	fresh, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	ck0, err := fresh.Export()
	if err != nil {
		t.Fatal(err)
	}
	if ck0.Cycle != 0 || ck0.Snapshot != nil {
		t.Errorf("fresh checkpoint: %+v", ck0)
	}
	back, err := RestoreSession(core.New(core.DefaultConfig()), ck0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := back.Propose(wireSnapshot(t, st)); err != nil {
		t.Fatalf("restored fresh session cannot plan: %v", err)
	}

	// Sessions driven through Cycle have no wire state to checkpoint.
	cycled, err := NewSession(core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	wb := &WireBackend{}
	wb.Push(st)
	cycled.Cycle(wb, nil, 0, st.Now)
	if _, err := cycled.Export(); err == nil {
		t.Error("Cycle-driven session exported a checkpoint with no wire state")
	}
}

// TestSessionShardedController: a Session owns a sharded controller
// behind the unchanged Propose API. K=1 must be byte-identical to a
// plain session; K>1 must plan deterministically, report aggregated
// reuse stats, and keep its incremental tiers across wire cycles.
func TestSessionShardedController(t *testing.T) {
	st := steadyState(t, 6, 16)
	snap, err := api.FromCoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	newUtility := func() core.Controller { return core.New(core.DefaultConfig()) }

	// K=1: identical wire plans to an unsharded session, cycle for cycle.
	one, err := NewSession(shard.New(shard.Config{Shards: 1, NewController: newUtility}))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewSession(newUtility())
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		got, _, err := one.Propose(snap)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := plain.Propose(snap)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Fatalf("cycle %d: K=1 sharded session plan differs from plain session", cycle)
		}
	}

	// K=3: deterministic across sessions, stats aggregate, replay fires.
	mk := func() *Session {
		s, err := NewSession(shard.New(shard.Config{Shards: 3, NewController: newUtility}))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := mk(), mk()
	if !s1.TracksStats() {
		t.Error("sharded session does not report plan stats")
	}
	for cycle := 0; cycle < 2; cycle++ {
		p1, stats, err := s1.Propose(snap)
		if err != nil {
			t.Fatal(err)
		}
		p2, _, err := s2.Propose(snap)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(p1)
		b, _ := json.Marshal(p2)
		if !bytes.Equal(a, b) {
			t.Fatalf("cycle %d: sharded sessions disagree", cycle)
		}
		if cycle == 1 && stats.Replayed == 0 {
			t.Errorf("identical re-propose did not replay on any shard: %+v", stats)
		}
	}
	if s1.Cycles() != 2 {
		t.Errorf("cycles = %d, want 2", s1.Cycles())
	}
}
