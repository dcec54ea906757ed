// Package control closes the paper's management loop: every control
// cycle it snapshots the system (monitoring), asks a controller for a
// plan (optimization), and enacts the plan (actuation) — recording the
// series the paper's figures plot.
//
// The package is split along the service boundary the HTTP daemon
// (cmd/slaplace-serve) exposes:
//
//   - Session owns a controller across cycles — the node ledgers and
//     incremental reuse tiers of the placement controller survive from
//     one plan to the next; plan scratch is shared by all sessions and
//     sized by the peak number of plans in flight — and drives the generic monitor → plan →
//     actuate cycle over any ClusterBackend. Its Propose/ProposeDelta
//     methods speak the versioned wire schema of package api: the
//     snapshot arrives over the wire and the plan is shipped back for
//     remote actuation.
//   - ClusterBackend abstracts the managed world. SimBackend adapts
//     the discrete-event simulator (the paper's testbed stand-in).
//   - Loop schedules periodic cycles of a Session over a SimBackend on
//     the event engine — the batch-experiment harness.
//
// Simulator actuation is two-phased, mirroring the real system's
// ordering constraint: suspensions, instance removals and share
// changes free resources first; placements that may need that memory
// (starts, resumes, migrations, instance additions) are issued after a
// short actuation delay that covers the suspend latency. An action
// that still fails (e.g. a race with an in-flight operation) is
// counted and dropped; the next cycle re-plans from observed state,
// which is the loop's self-healing property.
package control

import (
	"fmt"

	"slaplace/internal/cluster"
	"slaplace/internal/metrics"
	"slaplace/internal/sim"
	"slaplace/internal/vm"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// Options tunes the loop's timing.
type Options struct {
	// CyclePeriod is the control cycle length in seconds (600 in the
	// paper).
	CyclePeriod float64
	// FirstCycle is when the first cycle fires.
	FirstCycle float64
	// ActuationDelay separates the freeing phase (suspends, removals,
	// share changes) from the placing phase (starts, resumes,
	// migrations, instance adds). It should exceed the vm suspend
	// latency.
	ActuationDelay float64
	// SamplePeriod, when positive, records fine-grained workload
	// samples between control cycles.
	SamplePeriod float64
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.CyclePeriod <= 0 {
		return fmt.Errorf("control: non-positive cycle period %v", o.CyclePeriod)
	}
	if o.FirstCycle < 0 {
		return fmt.Errorf("control: negative first cycle %v", o.FirstCycle)
	}
	if o.ActuationDelay < 0 || o.ActuationDelay >= o.CyclePeriod {
		return fmt.Errorf("control: actuation delay %v outside [0, cycle)", o.ActuationDelay)
	}
	if o.SamplePeriod < 0 {
		return fmt.Errorf("control: negative sample period %v", o.SamplePeriod)
	}
	return nil
}

// Loop schedules a Session's control cycles over a SimBackend on the
// event engine.
type Loop struct {
	eng     *sim.Engine
	backend *SimBackend
	sess    *Session
	rec     *metrics.Recorder
	opts    Options

	// cycleBackend is what control cycles actually run against: the
	// SimBackend itself, or a wrapper installed by WrapBackend (the
	// chaos harness perturbs snapshots and audits plans this way).
	cycleBackend ClusterBackend

	ran         bool    // at least one cycle has run
	lastCycleAt float64 // previous cycle time (monitoring window start)
}

// NewLoop wires a loop together: a SimBackend over the simulator parts
// driven by the session's controller. web may be nil when the scenario
// has no transactional workload.
func NewLoop(eng *sim.Engine, cl *cluster.Cluster, mgr *vm.Manager,
	jobs *batch.Runtime, web *trans.Runtime, sess *Session,
	rec *metrics.Recorder, opts Options) (*Loop, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if sess == nil || rec == nil {
		return nil, fmt.Errorf("control: nil session or recorder")
	}
	backend, err := NewSimBackend(eng, cl, mgr, jobs, web,
		opts.ActuationDelay, sess.Name())
	if err != nil {
		return nil, err
	}
	return &Loop{eng: eng, backend: backend, sess: sess, rec: rec,
		opts: opts, cycleBackend: backend}, nil
}

// WrapBackend interposes wrap between the control cycle and the
// simulator backend: subsequent cycles run against wrap's result
// instead of the SimBackend directly. The chaos harness uses this to
// perturb snapshots and audit plans without the loop knowing. Call
// before Start.
func (l *Loop) WrapBackend(wrap func(ClusterBackend) ClusterBackend) {
	l.cycleBackend = wrap(l.cycleBackend)
}

// Cycles returns how many control cycles have executed.
func (l *Loop) Cycles() int { return l.sess.Cycles() }

// FailedActions returns how many plan actions could not be enacted.
func (l *Loop) FailedActions() int { return l.backend.FailedActions() }

// Start schedules the periodic control cycle (and sampler, if enabled).
func (l *Loop) Start() {
	l.eng.Periodic(sim.Time(l.opts.FirstCycle), l.opts.CyclePeriod,
		"control-cycle/"+l.sess.Name(), func(now sim.Time) { l.RunCycle(float64(now)) })
	if l.opts.SamplePeriod > 0 {
		l.eng.Periodic(0, l.opts.SamplePeriod, "sample", func(now sim.Time) {
			l.backend.Sample(l.rec, float64(now))
		})
	}
}

// RunCycle executes one full monitor → plan → actuate cycle at time
// now, recording the figure series.
func (l *Loop) RunCycle(now float64) {
	// The monitoring window for profiler estimates: since the previous
	// cycle, or one nominal period before the first.
	t0 := l.lastCycleAt
	if !l.ran {
		t0 = now - l.opts.CyclePeriod
		if t0 < 0 {
			t0 = 0
		}
		l.ran = true
	}
	l.lastCycleAt = now
	l.sess.Cycle(l.cycleBackend, l.rec, t0, now)
}

// FailNode injects a node failure: the node goes offline and every
// resident VM is force-evicted (jobs fall back to Suspended with
// checkpoint semantics; web instances are discarded).
func (l *Loop) FailNode(id cluster.NodeID) error { return l.backend.FailNode(id) }

// RestoreNode brings a failed node back online.
func (l *Loop) RestoreNode(id cluster.NodeID) error { return l.backend.RestoreNode(id) }
