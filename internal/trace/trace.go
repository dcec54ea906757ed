// Package trace reads and replays job traces. The paper's evaluation
// drives the system with a synthetic workload (800 identical jobs,
// exponential inter-arrivals); production studies replay recorded
// traces instead. This package replays a recorded trace into a
// simulation with exact timing.
//
// Job trace CSV format (header required):
//
//	id,submit,work,maxspeed,mem,goal,class
//	job-0001,123.4,9e7,4500,5000,40123.4,batch
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"slaplace/internal/res"
	"slaplace/internal/sim"
	"slaplace/internal/workload/batch"
)

// JobRecord is one job of a workload trace.
type JobRecord struct {
	ID       string
	Submit   float64 // submission time, seconds from run start
	Work     res.Work
	MaxSpeed res.CPU
	Mem      res.Memory
	Goal     float64 // absolute completion goal; 0 derives from class stretch
	Class    string
}

// Validate reports record errors.
func (r JobRecord) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("trace: record with empty job ID")
	}
	if r.Submit < 0 {
		return fmt.Errorf("trace: job %q negative submit time %v", r.ID, r.Submit)
	}
	if r.Work <= 0 {
		return fmt.Errorf("trace: job %q non-positive work %v", r.ID, r.Work)
	}
	if r.MaxSpeed <= 0 {
		return fmt.Errorf("trace: job %q non-positive max speed %v", r.ID, r.MaxSpeed)
	}
	if r.Mem <= 0 {
		return fmt.Errorf("trace: job %q non-positive memory %v", r.ID, r.Mem)
	}
	if r.Goal < 0 {
		return fmt.Errorf("trace: job %q negative goal %v", r.ID, r.Goal)
	}
	return nil
}

// jobHeader is the canonical CSV header.
var jobHeader = []string{"id", "submit", "work", "maxspeed", "mem", "goal", "class"}

// ReadJobs parses a job trace CSV.
func ReadJobs(r io.Reader) ([]JobRecord, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(jobHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	for i, h := range jobHeader {
		if header[i] != h {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i, header[i], h)
		}
	}
	var out []JobRecord
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		rec := JobRecord{ID: row[0], Class: row[6]}
		if rec.Submit, err = strconv.ParseFloat(row[1], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d submit: %w", line, err)
		}
		var f float64
		if f, err = strconv.ParseFloat(row[2], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d work: %w", line, err)
		}
		rec.Work = res.Work(f)
		if f, err = strconv.ParseFloat(row[3], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d maxspeed: %w", line, err)
		}
		rec.MaxSpeed = res.CPU(f)
		var m int64
		if m, err = strconv.ParseInt(row[4], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d mem: %w", line, err)
		}
		rec.Mem = res.Memory(m)
		if rec.Goal, err = strconv.ParseFloat(row[5], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d goal: %w", line, err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// Replayer submits trace records into a batch runtime at their exact
// times.
type Replayer struct {
	rt      *batch.Runtime
	eng     *sim.Engine
	recs    []JobRecord
	base    batch.Class // template for stretch/fn defaults
	started bool
}

// NewReplayer validates the trace and prepares a replayer. The base
// class supplies the goal stretch (for records with Goal = 0) and the
// utility function; per-record work/speed/memory override it.
func NewReplayer(rt *batch.Runtime, eng *sim.Engine, recs []JobRecord, base batch.Class) (*Replayer, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if seen[r.ID] {
			return nil, fmt.Errorf("trace: duplicate job ID %q", r.ID)
		}
		seen[r.ID] = true
	}
	return &Replayer{rt: rt, eng: eng, recs: recs, base: base}, nil
}

// Start schedules every record's submission. Records whose submit time
// is in the simulation's past are submitted immediately.
func (r *Replayer) Start() {
	if r.started {
		panic("trace: replayer started twice")
	}
	r.started = true
	now := float64(r.eng.Now())
	for _, rec := range r.recs {
		rec := rec
		at := rec.Submit
		if at < now {
			at = now
		}
		r.eng.At(sim.Time(at), "trace-submit/"+rec.ID, func(sim.Time) {
			class := r.base
			class.Work = rec.Work
			class.MaxSpeed = rec.MaxSpeed
			class.Mem = rec.Mem
			if rec.Class != "" {
				class.Name = rec.Class
			}
			if _, err := r.rt.Submit(batch.JobID(rec.ID), class, rec.Goal); err != nil {
				panic(fmt.Sprintf("trace: replay submit %q: %v", rec.ID, err))
			}
		})
	}
}

// Count returns the number of records the replayer will submit.
func (r *Replayer) Count() int { return len(r.recs) }
