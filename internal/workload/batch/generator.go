package batch

import (
	"fmt"
	"sort"

	"slaplace/internal/rng"
	"slaplace/internal/sim"
)

// Phase is one segment of a job arrival process: from Start onward,
// inter-arrival times are exponential with the given mean. The paper's
// evaluation uses a mean of 260 s and "slightly decreases" the rate
// near the end of the run — expressed here as a second phase.
type Phase struct {
	Start             float64 `json:"start"`            // absolute time the phase begins
	MeanInterarrival  float64 `json:"meanInterarrival"` // mean of the exponential inter-arrival
	DisableSubmission bool    `json:"disable"`          // a phase with no arrivals at all
}

// Generator submits jobs of one class according to a phased Poisson
// process, stopping after MaxJobs submissions (0 = unlimited).
type Generator struct {
	Class    Class
	Phases   []Phase // must be sorted by Start; first phase at the start time of generation
	MaxJobs  int
	IDPrefix string // job IDs are "<prefix>-0001", ...

	rt        *Runtime
	eng       *sim.Engine
	stream    *rng.Stream
	submitted int
	stopped   bool
}

// NewGenerator validates and builds a generator.
func NewGenerator(rt *Runtime, eng *sim.Engine, stream *rng.Stream, class Class, phases []Phase, maxJobs int, idPrefix string) (*Generator, error) {
	if err := class.Validate(); err != nil {
		return nil, err
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("batch: generator needs at least one phase")
	}
	if !sort.SliceIsSorted(phases, func(i, j int) bool { return phases[i].Start < phases[j].Start }) {
		return nil, fmt.Errorf("batch: generator phases not sorted by start time")
	}
	for i, p := range phases {
		if !p.DisableSubmission && p.MeanInterarrival <= 0 {
			return nil, fmt.Errorf("batch: phase %d has non-positive mean inter-arrival %v", i, p.MeanInterarrival)
		}
	}
	if idPrefix == "" {
		idPrefix = class.Name
	}
	return &Generator{
		Class: class, Phases: phases, MaxJobs: maxJobs, IDPrefix: idPrefix,
		rt: rt, eng: eng, stream: stream,
	}, nil
}

// phaseAt returns the phase governing time t (the last phase whose
// Start <= t; the first phase governs earlier times too).
func (g *Generator) phaseAt(t float64) Phase {
	cur := g.Phases[0]
	for _, p := range g.Phases {
		if p.Start <= t {
			cur = p
		} else {
			break
		}
	}
	return cur
}

// Start begins the arrival process at the engine's current time.
func (g *Generator) Start() {
	g.scheduleNext(float64(g.eng.Now()))
}

// Stop halts further submissions.
func (g *Generator) Stop() { g.stopped = true }

// Submitted returns how many jobs this generator has submitted.
func (g *Generator) Submitted() int { return g.submitted }

// scheduleNext samples the next arrival after time t and schedules it.
func (g *Generator) scheduleNext(t float64) {
	if g.stopped || (g.MaxJobs > 0 && g.submitted >= g.MaxJobs) {
		return
	}
	ph := g.phaseAt(t)
	if ph.DisableSubmission {
		// Jump to the next phase boundary, if any.
		for _, p := range g.Phases {
			if p.Start > t && !p.DisableSubmission {
				g.scheduleNext(p.Start)
				return
			}
		}
		return
	}
	gap := g.stream.Exp(ph.MeanInterarrival)
	next := t + gap
	// If the sampled arrival lands in a later phase, resample from the
	// boundary with the new phase's rate (standard piecewise-Poisson
	// thinning-free construction: memorylessness makes this exact).
	for _, p := range g.Phases {
		if p.Start > t && next > p.Start {
			g.scheduleNext(p.Start)
			return
		}
	}
	g.eng.At(sim.Time(next), "job-arrival/"+g.IDPrefix, func(now sim.Time) {
		if g.stopped || (g.MaxJobs > 0 && g.submitted >= g.MaxJobs) {
			return
		}
		g.submitted++
		id := JobID(fmt.Sprintf("%s-%04d", g.IDPrefix, g.submitted))
		if _, err := g.rt.Submit(id, g.Class, 0); err != nil {
			panic(fmt.Sprintf("batch: generator submit: %v", err))
		}
		g.scheduleNext(float64(now))
	})
}

// SubmitBurst immediately submits n jobs of the generator's class —
// used to seed experiments with "an insignificant number of
// long-running jobs already placed" as in the paper's setup.
func (g *Generator) SubmitBurst(n int) ([]*Job, error) {
	out := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		g.submitted++
		id := JobID(fmt.Sprintf("%s-%04d", g.IDPrefix, g.submitted))
		j, err := g.rt.Submit(id, g.Class, 0)
		if err != nil {
			return out, err
		}
		out = append(out, j)
	}
	return out, nil
}
