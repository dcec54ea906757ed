package core

import (
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// newPlanContext opens a standalone planning pass over a fresh arena:
// empty plan, freshly allocated books.
func newPlanContext(st *State) *planContext {
	a := &planArena{appTarget: make(map[trans.AppID]res.CPU, len(st.Apps))}
	return &planContext{
		st: st, plan: NewPlan(), ledgers: NewLedgers(st.Nodes),
		arena: a, appTarget: a.appTarget, scratch: &a.scratch,
	}
}

// PhaseNames lists the pipeline's stage names in order, for
// introspection and logging.
func (c *PlacementController) PhaseNames() []string {
	phases := c.Pipeline()
	names := make([]string, len(phases))
	for i, ph := range phases {
		names[i] = ph.Name
	}
	return names
}

// pipelineState builds a contended snapshot for phase tests: three
// nodes, one web app with an instance, one running and two pending
// jobs.
func pipelineState(t *testing.T) *State {
	t.Helper()
	return &State{
		Now:   1000,
		Nodes: nodes(3),
		Jobs: []JobInfo{
			job("running", batch.Running, "a", 4500, res.Work(4500*5000), 12000),
			job("pending1", batch.Pending, "", 0, res.Work(4500*5000), 12000),
			job("pending2", batch.Pending, "", 0, res.Work(4500*5000), 13000),
		},
		Apps: []AppInfo{webApp(t, "web", 40, map[cluster.NodeID]res.CPU{"a": 9000})},
	}
}

func TestPipelinePhaseNames(t *testing.T) {
	c := New(DefaultConfig())
	want := []string{"targets", "web-placement", "job-placement", "shares", "rebalance", "emit"}
	got := c.PhaseNames()
	if len(got) != len(want) {
		t.Fatalf("phase count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("phase %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// runPrefix executes the first n pipeline phases over a fresh context.
func runPrefix(t *testing.T, st *State, n int) *planContext {
	t.Helper()
	c := New(DefaultConfig())
	ctx := newPlanContext(st)
	for _, ph := range c.Pipeline()[:n] {
		ph.Run(ctx)
	}
	return ctx
}

// TestPhaseTargets checks the first phase in isolation: equalized
// targets exist for every workload, and running jobs' residency is on
// the books before anything is placed.
func TestPhaseTargets(t *testing.T) {
	st := pipelineState(t)
	ctx := runPrefix(t, st, 1)

	if ctx.plan.EqualizedUtility == 0 {
		t.Error("no equalized utility")
	}
	if len(ctx.appTarget) != 1 {
		t.Fatalf("app targets: %d", len(ctx.appTarget))
	}
	if len(ctx.planned) != 3 {
		t.Fatalf("planned jobs: %d", len(ctx.planned))
	}
	for _, pj := range ctx.planned {
		if pj.Target <= 0 {
			t.Errorf("job %s target %v, want > 0", pj.Info.ID, pj.Target)
		}
	}
	l, _ := ctx.ledgers.Get("a")
	if l.MemUsed != 5000 {
		t.Errorf("running residency not seeded: node a MemUsed = %v", l.MemUsed)
	}
	if len(ctx.plan.Actions) != 0 {
		t.Errorf("targets phase emitted %d actions", len(ctx.plan.Actions))
	}
}

// TestPhaseWebPlacement checks the second phase in isolation: the web
// tier holds reserved share and instance memory, before any job moves.
func TestPhaseWebPlacement(t *testing.T) {
	st := pipelineState(t)
	ctx := runPrefix(t, st, 2)

	var webShare res.CPU
	var webMem res.Memory
	ctx.ledgers.Each(func(l *Ledger) {
		webShare += l.WebShare
		for range l.WebApps {
			webMem += 1000
		}
	})
	if webShare <= 0 {
		t.Error("no web share reserved")
	}
	// No job placement yet: every pending job is still unassigned.
	for _, pj := range ctx.planned {
		if pj.PlacedNew {
			t.Errorf("job %s placed before the job-placement phase", pj.Info.ID)
		}
	}
}

// TestPhaseJobPlacement checks the third phase: all three jobs fit (3
// nodes × 16 GB vs 1 GB web instance + 5 GB per job), nobody waits.
func TestPhaseJobPlacement(t *testing.T) {
	st := pipelineState(t)
	ctx := runPrefix(t, st, 3)

	for _, pj := range ctx.planned {
		if pj.Waiting || pj.Suspend {
			t.Errorf("job %s not placed (waiting=%v suspend=%v)", pj.Info.ID, pj.Waiting, pj.Suspend)
		}
		if pj.Node == "" {
			t.Errorf("job %s has no node", pj.Info.ID)
		}
	}
	// Ledger memory never exceeds capacity.
	ctx.ledgers.Each(func(l *Ledger) {
		if l.MemUsed > l.Info.Mem {
			t.Errorf("node %s over memory: %v > %v", l.Info.ID, l.MemUsed, l.Info.Mem)
		}
	})
	// Shares are not assigned yet.
	for _, pj := range ctx.planned {
		if pj.Share != 0 {
			t.Errorf("job %s has share %v before the shares phase", pj.Info.ID, pj.Share)
		}
	}
}

// TestPhaseShares checks the fourth phase: every placed job receives a
// share, and per-node shares fit within CPU capacity.
func TestPhaseShares(t *testing.T) {
	st := pipelineState(t)
	ctx := runPrefix(t, st, 4)

	for _, pj := range ctx.planned {
		if !pj.Waiting && !pj.Suspend && pj.Share <= 0 {
			t.Errorf("job %s placed but shareless", pj.Info.ID)
		}
	}
	ctx.ledgers.Each(func(l *Ledger) {
		total := l.WebShare
		for _, pj := range l.Jobs {
			total += pj.Share
		}
		if total > l.Info.CPU*(1+1e-9) {
			t.Errorf("node %s over CPU: %v > %v", l.Info.ID, total, l.Info.CPU)
		}
	})
}

// TestPipelineMatchesPlan confirms running the phases one by one is
// exactly Plan().
func TestPipelineMatchesPlan(t *testing.T) {
	c := New(DefaultConfig())
	st := pipelineState(t)
	ctx := newPlanContext(st)
	for _, ph := range c.Pipeline() {
		ph.Run(ctx)
	}
	direct := c.Plan(pipelineState(t))
	if len(ctx.plan.Actions) != len(direct.Actions) {
		t.Fatalf("action counts differ: %d vs %d", len(ctx.plan.Actions), len(direct.Actions))
	}
	for i := range direct.Actions {
		if ctx.plan.Actions[i].String() != direct.Actions[i].String() {
			t.Errorf("action %d: %v vs %v", i, ctx.plan.Actions[i], direct.Actions[i])
		}
	}
	if ctx.plan.EqualizedUtility != direct.EqualizedUtility {
		t.Errorf("equalized utility differs: %v vs %v", ctx.plan.EqualizedUtility, direct.EqualizedUtility)
	}
}
