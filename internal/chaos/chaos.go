// Package chaos injects deterministic, seeded faults into the
// monitor → controller snapshot stream. The paper's placement
// controller exists to keep SLAs under disruption; this package
// supplies the disruption: node crashes mid-cycle (running jobs
// stranded), delayed crash detection (a dead node still reported alive
// for k cycles), flapping nodes, mass departure/arrival waves, and
// stale snapshot replays (duplication and regression).
//
// The Engine perturbs snapshots between the backend's monitor and the
// planning session. Perturbations are pure functions of the
// configuration seed and the snapshot sequence, so a replay with the
// same seed produces the same fault schedule and — controllers being
// deterministic — the same plan sequence. A World lets families that
// model real failures (crashes, departure waves) take nodes down in
// the simulated cluster; with a nil World the same families degrade to
// pure monitoring lies (the node stays up but vanishes from reports),
// which is how the serve-path soak feeds inconsistent snapshots to the
// daemon.
package chaos

import (
	"fmt"
	"sort"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/res"
	"slaplace/internal/rng"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// Crash configures periodic single-node crashes. The crash lands
// mid-cycle: the cycle's snapshot was taken just before, so the
// controller plans one cycle for a node that is already dead. With
// DetectionLag > 0 the monitor keeps reporting the dead node — and the
// jobs stranded on it as Running — for that many further cycles.
type Crash struct {
	// Every is the crash period in cycles (≥ 1).
	Every int `json:"every"`
	// Start is the first crash cycle (1-based, ≥ 1).
	Start int `json:"start"`
	// DetectionLag is how many cycles after the crash the dead node is
	// still reported alive (0 = detected on the next cycle).
	DetectionLag int `json:"detectionLag"`
	// RestoreAfter brings the node back this many cycles after its
	// crash (0 = never; otherwise must exceed DetectionLag).
	RestoreAfter int `json:"restoreAfter"`
}

// Flap configures a fixed set of nodes that alternate between visible
// and vanished every Period cycles. Flapping is a monitoring pathology:
// the nodes never actually fail, so jobs on them keep running — and
// keep being reported Running on nodes the snapshot no longer lists.
type Flap struct {
	// Nodes is how many nodes flap (chosen once, seeded, ≥ 1).
	Nodes int `json:"nodes"`
	// Period is the half-period in cycles: down for Period cycles,
	// up for Period, and so on (≥ 1).
	Period int `json:"period"`
	// Start is the first down cycle (1-based, ≥ 1).
	Start int `json:"start"`
}

// Wave configures a mass departure of Count nodes at cycle DepartAt,
// optionally returning all of them at cycle ReturnAt. Departures are
// detected immediately — the wave's snapshot already omits the nodes,
// stranding their running jobs — which models a rack or zone dropping
// out between monitor sweeps.
type Wave struct {
	// DepartAt is the departure cycle (1-based, ≥ 1).
	DepartAt int `json:"departAt"`
	// Count is how many nodes depart (seeded choice, ≥ 1).
	Count int `json:"count"`
	// ReturnAt brings every departed node back (0 = never; otherwise
	// must exceed DepartAt).
	ReturnAt int `json:"returnAt"`
}

// Stale configures snapshot replay faults: every DuplicateEvery-th
// cycle the previous snapshot is re-delivered with the clock
// re-stamped (the monitor shows no progress), and every RegressEvery-th
// cycle the previous snapshot is re-delivered verbatim — old timestamp
// and all — which is the regressing feed the wire path rejects with a
// conflict.
type Stale struct {
	// DuplicateEvery re-delivers the previous snapshot (re-stamped to
	// the current time) every this many cycles (0 = off, else ≥ 2).
	DuplicateEvery int `json:"duplicateEvery"`
	// RegressEvery re-delivers the previous snapshot verbatim every
	// this many cycles (0 = off, else ≥ 2).
	RegressEvery int `json:"regressEvery"`
}

// Config selects and tunes the fault families. At least one family
// must be set.
type Config struct {
	// Seed drives every random choice the engine makes.
	Seed uint64 `json:"seed"`

	Crash *Crash `json:"crash"`
	Flap  *Flap  `json:"flap"`
	Wave  *Wave  `json:"wave"`
	Stale *Stale `json:"stale"`
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Crash == nil && c.Flap == nil && c.Wave == nil && c.Stale == nil {
		return fmt.Errorf("chaos: no fault family configured")
	}
	if cr := c.Crash; cr != nil {
		if cr.Every < 1 {
			return fmt.Errorf("chaos: crash every %d < 1", cr.Every)
		}
		if cr.Start < 1 {
			return fmt.Errorf("chaos: crash start %d < 1", cr.Start)
		}
		if cr.DetectionLag < 0 {
			return fmt.Errorf("chaos: negative detection lag %d", cr.DetectionLag)
		}
		if cr.RestoreAfter != 0 && cr.RestoreAfter <= cr.DetectionLag {
			return fmt.Errorf("chaos: restoreAfter %d must exceed detectionLag %d",
				cr.RestoreAfter, cr.DetectionLag)
		}
	}
	if f := c.Flap; f != nil {
		if f.Nodes < 1 {
			return fmt.Errorf("chaos: flap nodes %d < 1", f.Nodes)
		}
		if f.Period < 1 {
			return fmt.Errorf("chaos: flap period %d < 1", f.Period)
		}
		if f.Start < 1 {
			return fmt.Errorf("chaos: flap start %d < 1", f.Start)
		}
	}
	if w := c.Wave; w != nil {
		if w.DepartAt < 1 {
			return fmt.Errorf("chaos: wave departAt %d < 1", w.DepartAt)
		}
		if w.Count < 1 {
			return fmt.Errorf("chaos: wave count %d < 1", w.Count)
		}
		if w.ReturnAt != 0 && w.ReturnAt <= w.DepartAt {
			return fmt.Errorf("chaos: wave returnAt %d must exceed departAt %d",
				w.ReturnAt, w.DepartAt)
		}
	}
	if s := c.Stale; s != nil {
		if s.DuplicateEvery == 0 && s.RegressEvery == 0 {
			return fmt.Errorf("chaos: stale block with both periods zero")
		}
		if s.DuplicateEvery != 0 && s.DuplicateEvery < 2 {
			return fmt.Errorf("chaos: stale duplicateEvery %d < 2", s.DuplicateEvery)
		}
		if s.RegressEvery != 0 && s.RegressEvery < 2 {
			return fmt.Errorf("chaos: stale regressEvery %d < 2", s.RegressEvery)
		}
	}
	return nil
}

// World lets fault families that model real failures act on the
// managed cluster: Fail takes a node down (evicting its VMs), Restore
// brings it back. Either function may be nil, in which case the family
// degrades to a pure monitoring lie — the node stays up but vanishes
// from (or lingers in) snapshots.
type World struct {
	Fail    func(cluster.NodeID) error
	Restore func(cluster.NodeID) error
}

// Stats counts what the engine has injected.
type Stats struct {
	Cycles      int // Step calls
	Crashes     int // single-node crashes injected
	Restores    int // crash restores issued
	FlapCycles  int // cycles with the flap set hidden
	Departed    int // nodes taken by the departure wave
	Returned    int // nodes brought back by the return wave
	Duplicates  int // duplicated (re-stamped) snapshots served
	Regressions int // regressed (verbatim stale) snapshots served
	WorldErrors int // World calls that returned an error
}

// crashRecord remembers what a crashed node looked like just before
// the crash, so the lagging monitor can keep reporting it.
type crashRecord struct {
	node       core.NodeInfo
	jobs       []core.JobInfo          // jobs Running on the node at crash time
	insts      map[trans.AppID]res.CPU // instance shares on the node
	crashedAt  int
	restoreAt  int // 0 = never
	restored   bool
	restoredAt int
}

// Engine perturbs a snapshot stream. Create with New; feed every
// cycle's snapshot through Step.
type Engine struct {
	cfg    Config
	crashS *rng.Stream
	flapS  *rng.Stream
	waveS  *rng.Stream

	cycle      int // 1-based Step count
	crashes    []*crashRecord
	flapSet    map[cluster.NodeID]bool
	flapChosen bool
	departed   map[cluster.NodeID]bool
	waveFired  bool
	waveDone   bool
	prev       *core.State
	stats      Stats
}

// New builds an engine for the configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.NewSource(cfg.Seed)
	return &Engine{
		cfg:      cfg,
		crashS:   src.Stream("chaos/crash"),
		flapS:    src.Stream("chaos/flap"),
		waveS:    src.Stream("chaos/wave"),
		departed: map[cluster.NodeID]bool{},
	}, nil
}

// Stats returns the injection counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// Cycle returns how many snapshots have been stepped.
func (e *Engine) Cycle() int { return e.cycle }

// Step perturbs one cycle's snapshot. st is the true monitoring state;
// the returned state is what the controller should be shown. st is not
// mutated. World calls (crashes, restores) land after st was taken, so
// their effects surface in the next cycle's snapshot — the mid-cycle
// timing the families model.
func (e *Engine) Step(st *core.State, w World) *core.State {
	e.cycle++
	e.stats.Cycles++

	// Crash restores due this cycle: the node comes back in the world
	// now, visible from the next snapshot on.
	for _, cr := range e.crashes {
		if cr.restoreAt > 0 && !cr.restored && e.cycle >= cr.restoreAt {
			cr.restored = true
			cr.restoredAt = e.cycle
			e.stats.Restores++
			e.worldCall(w.Restore, cr.node.ID)
		}
	}

	// Stale replays short-circuit every other perturbation: the monitor
	// re-delivers its previous report instead of a fresh one.
	if s := e.cfg.Stale; s != nil && e.prev != nil {
		if s.RegressEvery > 0 && e.cycle%s.RegressEvery == 0 {
			e.stats.Regressions++
			return cloneState(e.prev) // verbatim: old clock and all
		}
		if s.DuplicateEvery > 0 && e.cycle%s.DuplicateEvery == 0 {
			e.stats.Duplicates++
			out := cloneState(e.prev)
			out.Now = st.Now
			e.prev = cloneState(out)
			return out
		}
	}

	out := cloneState(st)
	e.applyCrash(out, w)
	e.applyFlap(out)
	e.applyWave(out, w)
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].ID < out.Nodes[j].ID })
	e.prev = cloneState(out)
	return out
}

// dead reports nodes currently taken down by a fault (crashed and not
// restored, or departed), so victim selection never double-kills.
func (e *Engine) dead() map[cluster.NodeID]bool {
	dead := map[cluster.NodeID]bool{}
	for _, cr := range e.crashes {
		if !cr.restored {
			dead[cr.node.ID] = true
		}
	}
	for id := range e.departed {
		dead[id] = true
	}
	return dead
}

func (e *Engine) applyCrash(out *core.State, w World) {
	c := e.cfg.Crash
	if c == nil {
		return
	}
	if e.cycle >= c.Start && (e.cycle-c.Start)%c.Every == 0 {
		if victim, ok := e.pickAlive(out, e.crashS); ok {
			cr := &crashRecord{node: victim, crashedAt: e.cycle}
			if c.RestoreAfter > 0 {
				cr.restoreAt = e.cycle + c.RestoreAfter
			}
			for _, j := range out.Jobs {
				if j.State == batch.Running && j.Node == victim.ID {
					cr.jobs = append(cr.jobs, j)
				}
			}
			for _, a := range out.Apps {
				if s, ok := a.Instances[victim.ID]; ok {
					if cr.insts == nil {
						cr.insts = map[trans.AppID]res.CPU{}
					}
					cr.insts[a.ID] = s
				}
			}
			e.crashes = append(e.crashes, cr)
			e.stats.Crashes++
			e.worldCall(w.Fail, victim.ID)
			// This cycle's snapshot predates the crash: the node and its
			// jobs still look alive (the mid-cycle stranding).
		}
	}
	for _, cr := range e.crashes {
		switch {
		case cr.crashedAt == e.cycle:
			// Mid-cycle lie: leave the fresh snapshot as taken.
		case cr.restored:
			if cr.restoredAt == e.cycle {
				// The restore lands after this snapshot was taken.
				hideNode(out, cr.node.ID)
			}
		case e.cycle <= cr.crashedAt+c.DetectionLag:
			e.splice(out, cr)
		default:
			hideNode(out, cr.node.ID)
		}
	}
}

func (e *Engine) applyFlap(out *core.State) {
	f := e.cfg.Flap
	if f == nil || e.cycle < f.Start {
		return
	}
	if !e.flapChosen {
		e.flapChosen = true
		ids := nodeIDs(out.Nodes, nil)
		n := f.Nodes
		if n > len(ids) {
			n = len(ids)
		}
		e.flapSet = map[cluster.NodeID]bool{}
		for _, idx := range e.flapS.Perm(len(ids))[:n] {
			e.flapSet[ids[idx]] = true
		}
	}
	if ((e.cycle-f.Start)/f.Period)%2 != 0 {
		return // up phase
	}
	e.stats.FlapCycles++
	for _, id := range sortedIDs(e.flapSet) {
		hideNode(out, id)
	}
}

func (e *Engine) applyWave(out *core.State, w World) {
	wv := e.cfg.Wave
	if wv == nil {
		return
	}
	if !e.waveFired && e.cycle >= wv.DepartAt {
		e.waveFired = true
		ids := nodeIDs(out.Nodes, e.dead())
		n := wv.Count
		if n > len(ids) {
			n = len(ids)
		}
		for _, idx := range e.waveS.Perm(len(ids))[:n] {
			e.departed[ids[idx]] = true
			e.stats.Departed++
			e.worldCall(w.Fail, ids[idx])
		}
	}
	if e.waveDone {
		return
	}
	// Departures are detected immediately: hide the wave from this
	// cycle's snapshot, stranding its running jobs.
	for _, id := range sortedIDs(e.departed) {
		hideNode(out, id)
	}
	if e.waveFired && wv.ReturnAt > 0 && e.cycle >= wv.ReturnAt {
		// The return lands after this snapshot: nodes reappear next
		// cycle.
		for _, id := range sortedIDs(e.departed) {
			e.stats.Returned++
			e.worldCall(w.Restore, id)
		}
		e.departed = map[cluster.NodeID]bool{}
		e.waveDone = true
	}
}

// pickAlive chooses one genuinely-alive node from the snapshot.
func (e *Engine) pickAlive(out *core.State, s *rng.Stream) (core.NodeInfo, bool) {
	dead := e.dead()
	alive := make([]core.NodeInfo, 0, len(out.Nodes))
	for _, n := range out.Nodes {
		if !dead[n.ID] {
			alive = append(alive, n)
		}
	}
	if len(alive) == 0 {
		return core.NodeInfo{}, false
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].ID < alive[j].ID })
	return alive[s.Intn(len(alive))], true
}

// splice re-inserts an undetected dead node: the node itself, its
// stranded jobs re-reported Running where they were, and its instance
// shares. Jobs the controller has since revived elsewhere are left
// alone — the job manager saw those moves happen.
func (e *Engine) splice(out *core.State, cr *crashRecord) {
	present := false
	for _, n := range out.Nodes {
		if n.ID == cr.node.ID {
			present = true
			break
		}
	}
	if !present {
		out.Nodes = append(out.Nodes, cr.node)
	}
	for _, cj := range cr.jobs {
		for i := range out.Jobs {
			if out.Jobs[i].ID != cj.ID {
				continue
			}
			if out.Jobs[i].State == batch.Suspended && out.Jobs[i].Node == "" {
				remaining := out.Jobs[i].Remaining
				out.Jobs[i] = cj
				out.Jobs[i].Remaining = remaining
			}
			break
		}
	}
	for i := range out.Apps {
		a := &out.Apps[i]
		share, ok := cr.insts[a.ID]
		if !ok {
			continue
		}
		if _, has := a.Instances[cr.node.ID]; !has {
			a.Instances[cr.node.ID] = share
		}
	}
}

func (e *Engine) worldCall(f func(cluster.NodeID) error, id cluster.NodeID) {
	if f == nil {
		return
	}
	if err := f(id); err != nil {
		e.stats.WorldErrors++
	}
}

// hideNode removes a node and its instance reports from the snapshot.
// Jobs reported on it are left as-is: the job manager's books outlive
// the node agent, which is exactly the stranded-job inconsistency the
// controllers must absorb.
func hideNode(out *core.State, id cluster.NodeID) {
	for i, n := range out.Nodes {
		if n.ID == id {
			out.Nodes = append(out.Nodes[:i:i], out.Nodes[i+1:]...)
			break
		}
	}
	for i := range out.Apps {
		delete(out.Apps[i].Instances, id)
	}
}

// nodeIDs returns the snapshot's node IDs, sorted, minus the excluded
// set.
func nodeIDs(nodes []core.NodeInfo, excluded map[cluster.NodeID]bool) []cluster.NodeID {
	out := make([]cluster.NodeID, 0, len(nodes))
	for _, n := range nodes {
		if !excluded[n.ID] {
			out = append(out, n.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedIDs returns a set's members in sorted order.
func sortedIDs(set map[cluster.NodeID]bool) []cluster.NodeID {
	out := make([]cluster.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cloneState deep-copies a snapshot so perturbation never aliases the
// backend's (or a previous cycle's) state.
func cloneState(st *core.State) *core.State {
	cp := &core.State{Now: st.Now}
	cp.Nodes = append([]core.NodeInfo(nil), st.Nodes...)
	cp.Jobs = append([]core.JobInfo(nil), st.Jobs...)
	for _, a := range st.Apps {
		ac := a
		ac.Instances = make(map[cluster.NodeID]res.CPU, len(a.Instances))
		for n, s := range a.Instances {
			ac.Instances[n] = s
		}
		cp.Apps = append(cp.Apps, ac)
	}
	return cp
}
