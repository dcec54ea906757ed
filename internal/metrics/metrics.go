// Package metrics collects the time series every experiment reports:
// utilities, demands, allocations, placement churn. It provides a named
// recorder, CSV export (both long and aligned-wide formats), summary
// statistics, and a small ASCII renderer used by the figure binaries to
// show curve shapes directly in the terminal.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Point is one time-stamped sample.
type Point struct {
	T float64 // simulation time, s
	V float64
}

// Series is an append-only time series. Samples must be appended in
// non-decreasing time order (the recorder's sampling loops guarantee
// this; Add enforces it).
type Series struct {
	name string
	pts  []Point
}

// NewSeries creates an empty series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Add appends a sample. It panics if time goes backwards.
func (s *Series) Add(t, v float64) {
	if n := len(s.pts); n > 0 && t < s.pts[n-1].T {
		panic(fmt.Sprintf("metrics: series %q time going backwards: %v < %v",
			s.name, t, s.pts[n-1].T))
	}
	s.pts = append(s.pts, Point{T: t, V: v})
}

// Points returns the backing samples (callers must not mutate).
func (s *Series) Points() []Point { return s.pts }

// ValueAt returns the most recent value at or before t (zero-order
// hold); ok=false when no sample exists yet at t.
func (s *Series) ValueAt(t float64) (float64, bool) {
	idx := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T > t })
	if idx == 0 {
		return 0, false
	}
	return s.pts[idx-1].V, true
}

// Window returns the samples with T in [t0, t1].
func (s *Series) Window(t0, t1 float64) []Point {
	lo := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T >= t0 })
	hi := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T > t1 })
	return s.pts[lo:hi]
}

// MeanOver returns the arithmetic mean of samples in [t0, t1]
// (0 when the window is empty).
func (s *Series) MeanOver(t0, t1 float64) float64 {
	w := s.Window(t0, t1)
	if len(w) == 0 {
		return 0
	}
	var sum float64
	for _, p := range w {
		sum += p.V
	}
	return sum / float64(len(w))
}

// Slice returns a new Series holding only the samples with T in
// [t0, t1]; the figure renderers use it to drop warm-up samples.
func (s *Series) Slice(t0, t1 float64) *Series {
	out := NewSeries(s.name)
	out.pts = append(out.pts, s.Window(t0, t1)...)
	return out
}

// Values extracts the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.pts))
	for i, p := range s.pts {
		out[i] = p.V
	}
	return out
}

// Summary holds descriptive statistics of a sample set.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	P50, P95, P99    float64
	First, Last      float64
	TimeMin, TimeMax float64
}

// Summarize computes descriptive statistics of a series (zero Summary
// for an empty one).
func (s *Series) Summarize() Summary {
	if len(s.pts) == 0 {
		return Summary{}
	}
	vals := s.Values()
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, v := range vals {
		sum += v
		sumSq += v * v
	}
	n := float64(len(vals))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	pct := func(p float64) float64 {
		if len(sorted) == 1 {
			return sorted[0]
		}
		rank := p * float64(len(sorted)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		frac := rank - float64(lo)
		return sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return Summary{
		N:    len(vals),
		Mean: mean, Std: math.Sqrt(variance),
		Min: sorted[0], Max: sorted[len(sorted)-1],
		P50: pct(0.50), P95: pct(0.95), P99: pct(0.99),
		First: vals[0], Last: vals[len(vals)-1],
		TimeMin: s.pts[0].T, TimeMax: s.pts[len(s.pts)-1].T,
	}
}

// Recorder is a registry of named series.
type Recorder struct {
	series map[string]*Series
	order  []string
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Series returns the named series, creating it on first use.
func (r *Recorder) Series(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = NewSeries(name)
		r.series[name] = s
		r.order = append(r.order, name)
	}
	return s
}

// SeriesNames returns the series names in creation order.
func (r *Recorder) SeriesNames() []string {
	return append([]string(nil), r.order...)
}

// WriteLongCSV writes every series as (series,t,value) rows — robust to
// unaligned sampling.
func (r *Recorder) WriteLongCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "series,t,value"); err != nil {
		return err
	}
	for _, name := range r.order {
		for _, p := range r.series[name].pts {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", name, p.T, p.V); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteWideCSV writes the named series as aligned columns over the
// union of their timestamps, zero-order-holding missing values. Series
// with no sample yet at a timestamp emit empty cells.
func (r *Recorder) WriteWideCSV(w io.Writer, names []string) error {
	if len(names) == 0 {
		names = r.order
	}
	cols := make([]*Series, 0, len(names))
	header := "t"
	for _, n := range names {
		s, ok := r.series[n]
		if !ok {
			return fmt.Errorf("metrics: unknown series %q", n)
		}
		cols = append(cols, s)
		header += "," + n
	}
	// Union of timestamps.
	stamps := map[float64]struct{}{}
	for _, s := range cols {
		for _, p := range s.pts {
			stamps[p.T] = struct{}{}
		}
	}
	ts := make([]float64, 0, len(stamps))
	for t := range stamps {
		ts = append(ts, t)
	}
	sort.Float64s(ts)
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, t := range ts {
		row := fmt.Sprintf("%g", t)
		for _, s := range cols {
			if v, ok := s.ValueAt(t); ok {
				row += fmt.Sprintf(",%g", v)
			} else {
				row += ","
			}
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}
