package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef names one reported number. Bound is the relative worsening
// that counts as a regression; only end-to-end metrics have one.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the planner would see, measured
// with tracing off on every workload. BENCHMARK.json repeats this list;
// a test keeps the two equal.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "plan_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "plan_ms_p95", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "plans_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "daemon_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a single-workload
// run.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// slices is how many equal parts the timed clock is cut into. Each
// reported timing is the median of the parts' values, so a burst of
// interference from the host's other tenants in one part of a window
// does not decide the result.
const slices = 5

// endToEndValues computes the end-to-end metrics of one workload from
// what it observed. setups are the durations of its repeated set-ups.
func endToEndValues(out *outcome, setups []time.Duration) map[string]float64 {
	rec := out.rec
	width := rec.busy / slices
	parts := make([][]float64, slices)
	for i, at := range rec.at {
		k := slices - 1
		if width > 0 {
			k = min(int(at/width), slices-1)
		}
		parts[k] = append(parts[k], float64(rec.latency[i])/float64(time.Millisecond))
	}
	var p50, p95, rate []float64
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		sort.Float64s(part)
		p50 = append(p50, percentile(part, 50))
		p95 = append(p95, percentile(part, 95))
		rate = append(rate, float64(len(part))/width.Seconds())
	}
	return map[string]float64{
		"setup_s":       medianIn(setups, time.Second),
		"plan_ms_p50":   median(p50),
		"plan_ms_p95":   median(p95),
		"plans_per_s":   median(rate),
		"daemon_rss_mb": out.rssMB,
	}
}

// withUnits attaches each metric's unit; a metric missing from vals is
// reported as 0 (the layer did no work on this workload).
func withUnits(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// printMetrics writes one workload's metrics as an aligned table.
func printMetrics(w io.Writer, workload string, defs []metricDef, vals map[string]float64, samples int) {
	fmt.Fprintf(w, "%s (%d timed samples)\n", workload, samples)
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", 100*d.Bound)
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-6s %s better%s\n", d.Name, vals[d.Name], d.Unit, d.Better, bound)
	}
}

// printTiers writes the observed re-plan tier mix.
func printTiers(w io.Writer, modes map[string]int) {
	names := make([]string, 0, len(modes))
	total := 0
	for m, n := range modes {
		names = append(names, m)
		total += n
	}
	sort.Strings(names)
	fmt.Fprint(w, "  tier mix:")
	for _, m := range names {
		fmt.Fprintf(w, " %s %.1f%%", m, 100*float64(modes[m])/float64(total))
	}
	fmt.Fprintln(w)
}

func writeResultLine(w io.Writer, line resultLine) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
