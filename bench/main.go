// Command bench is the repository's benchmark: closed-loop serving
// workloads driven by seeded cluster twins against the real
// slaplace-serve binary, plus the paper's own simulated evaluation.
// See README.md in this directory for the workload and metric catalogue.
//
// Usage, from the repository root:
//
//	go run ./bench                         every workload, end-to-end metrics
//	go run ./bench -trace 1                ... plus the per-layer traced runs
//	go run ./bench -selfcheck              A/A: two sets of runs must agree
//	go run ./bench -workload churn -seed 3 -seconds 10 -trace 0
//	                                       one workload, one JSON result line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how often a workload is set up per run; setup_s is
// the median, so one slow process spawn does not decide it.
const setupRepeats = 3

// outDir receives the result file and the trace files.
var outDir = filepath.Join("bench", "out")

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and end with a JSON result line (default: all five)")
		seed         = flag.Uint64("seed", 1, "seeds every twin and scenario")
		seconds      = flag.Int("seconds", 10, "length of one timed window; without -workload each workload gets two, interleaved")
		trace        = flag.Int("trace", 0, "1 = also run the traced shadow pipeline and report the per-layer metrics")
		selfcheck    = flag.Bool("selfcheck", false, "run every workload twice on this build and fail unless the two agree within the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return usage("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 {
		return usage("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return usage("-trace must be 0 or 1")
	}
	names := workloadNames
	if *workloadName != "" {
		if _, err := newWorkload(*workloadName, 0, sizing{}, nil); err != nil {
			return usage("%v", err)
		}
		names = []string{*workloadName}
	}

	if err := prepareScratch(); err != nil {
		return fail(err)
	}
	defer cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(130)
	}()

	bin, buildTook, err := buildDaemon()
	if err != nil {
		return fail(err)
	}
	b := &bench{
		seed: *seed, seconds: *seconds, traced: *trace == 1,
		launch: processLauncher(bin), buildTook: buildTook, size: fullSize,
	}
	switch {
	case *selfcheck:
		err = b.selfcheck(names)
	case *workloadName != "":
		err = b.single(*workloadName)
	default:
		err = b.all(names)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	return 2
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 1
}

// bench is one invocation's settings.
type bench struct {
	seed      uint64
	seconds   int
	traced    bool
	launch    launcher
	buildTook time.Duration
	size      sizing
}

// measured is one workload's finished run.
type measured struct {
	Workload  string           `json:"workload"`
	Samples   int              `json:"timedSamples"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]value `json:"endToEnd,omitempty"`
	PerLayer  map[string]value `json:"perLayer,omitempty"`

	flags    []string
	sessions int
	out      *outcome
	err      error
}

func (m *measured) values(of map[string]value) map[string]float64 {
	vals := make(map[string]float64, len(of))
	for name, v := range of {
		vals[name] = v.Value
	}
	return vals
}

// measure sets up every named workload setups times, runs the timed
// windows — halves of them per workload, interleaved round-robin across
// workloads so that slow drift of a shared host lands on all alike —
// and tears everything down. A workload that fails keeps its error in
// its result; the others still run.
func (b *bench) measure(names []string, setups, halves int, window time.Duration) []*measured {
	results := make([]*measured, len(names))
	workloads := make([]workload, len(names))
	setupTimes := make([][]time.Duration, len(names))
	for i, name := range names {
		m := &measured{Workload: name}
		results[i] = m
		w, err := newWorkload(name, b.seed, b.size, b.launch)
		if err != nil {
			m.err = err
			continue
		}
		workloads[i] = w
		defer w.teardown()
		m.flags = w.flags()
		if tw, ok := w.(*tenantsWorkload); ok {
			m.sessions = tw.sessions()
		}
		for r := 0; r < setups && m.err == nil; r++ {
			if r > 0 {
				w.teardown()
			}
			start := time.Now()
			m.err = w.setup()
			setupTimes[i] = append(setupTimes[i], time.Since(start))
		}
	}
	for h := 0; h < halves; h++ {
		for i, w := range workloads {
			if m := results[i]; w != nil && m.err == nil {
				m.err = w.measure(window)
			}
		}
	}
	for i, w := range workloads {
		m := results[i]
		if w == nil {
			continue
		}
		if fw, ok := w.(*failoverWorkload); ok && b.traced {
			for r := 0; r < setupRepeats && m.err == nil; r++ {
				m.err = fw.eagerRestart()
			}
		}
		m.out = w.outcome()
		if rec := m.out.rec; rec != nil {
			m.Samples, m.Attempted, m.Failed = len(rec.latency), rec.attempted, rec.failed
			if m.err == nil && rec.failed > 0 {
				m.err = rec.firstErr
			}
			if m.Samples > 0 {
				m.EndToEnd = withUnits(endToEnd, endToEndValues(m.out, setupTimes[i]))
			}
		}
	}
	return results
}

// trace runs the workload's traced half and fills in its per-layer
// metrics.
func (b *bench) trace(m *measured, budget time.Duration) {
	if m.err != nil || m.out.rec == nil {
		return
	}
	vals := observedLayers(m.out, m.sessions, b.buildTook)
	if m.Workload != wlPaperSim {
		tt, err := traceRun(m.Workload, b.seed, b.size, budget)
		if err != nil {
			m.err = err
			return
		}
		defer tt.close()
		p50 := percentile(sortedIn(m.out.rec.latency, time.Millisecond), 50)
		tracedLayers(vals, tt, p50)
		if err := tt.tr.write(filepath.Join(outDir, "trace-"+m.Workload+".json")); err != nil {
			m.err = err
			return
		}
		if tt.mismatches > 0 {
			m.err = fmt.Errorf("%d of %d traced replies differ between shadow, session and handler", tt.mismatches, tt.requests)
		}
	}
	m.PerLayer = withUnits(perLayer, vals)
}

// single is the one-workload mode: one window, and a JSON result line
// last on standard output — the end-to-end metrics untraced, the
// per-layer metrics traced.
func (b *bench) single(name string) error {
	window := time.Duration(b.seconds) * time.Second
	var m *measured
	if b.traced {
		// Half the time watches the daemon from outside, half traces the
		// shadow pipeline.
		m = b.measure([]string{name}, 1, 1, window/2)[0]
		b.trace(m, window/2)
	} else {
		m = b.measure([]string{name}, setupRepeats, 1, window)[0]
	}
	b.print(m)
	metrics := m.EndToEnd
	if b.traced {
		metrics = m.PerLayer
	}
	if metrics == nil {
		return fmt.Errorf("%s: %w", name, m.err)
	}
	line := resultLine{Correct: m.err == nil, Attempted: max(m.Attempted, 1), Failed: m.Failed, Metrics: metrics}
	if err := writeResultLine(os.Stdout, line); err != nil {
		return err
	}
	if m.err != nil {
		return fmt.Errorf("%s: %w", name, m.err)
	}
	return nil
}

// all is the default mode: every workload, two interleaved windows
// each, every metric printed by name, and the result file written.
func (b *bench) all(names []string) error {
	results := b.runAll(names)
	if err := b.writeResults(results); err != nil {
		return err
	}
	return firstError(results)
}

func (b *bench) runAll(names []string) []*measured {
	window := time.Duration(b.seconds) * time.Second
	var serving []string
	for _, name := range names {
		if name != wlPaperSim {
			serving = append(serving, name)
		}
	}
	results := b.measure(serving, setupRepeats, 2, window)
	for _, m := range results {
		if b.traced {
			b.trace(m, window)
		}
		b.print(m)
	}
	if len(serving) < len(names) {
		results = append(results, b.paperSimChild())
	}
	return results
}

// paperSimChild runs paper-sim as a single-workload run of this same
// binary. The workload has no daemon: its planner lives in the measuring
// process, and only a process of its own gives it the same heap, the
// same collector pacing and a meaningful peak RSS whatever else this
// invocation has run.
func (b *bench) paperSimChild() *measured {
	m := &measured{Workload: wlPaperSim}
	run := func(trace int) (map[string]value, error) {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(self, "-workload", wlPaperSim, "-seed", fmt.Sprint(b.seed),
			"-seconds", fmt.Sprint(2*b.seconds), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		// The child's last line is its result, the rest its tables.
		text := strings.TrimRight(string(out), "\n")
		cut := strings.LastIndexByte(text, '\n') + 1
		fmt.Print(text[:cut])
		if err != nil {
			return nil, fmt.Errorf("child run: %w", err)
		}
		var line resultLine
		if err := json.Unmarshal([]byte(text[cut:]), &line); err != nil {
			return nil, fmt.Errorf("child result line: %w", err)
		}
		m.Samples, m.Attempted, m.Failed = line.Attempted, line.Attempted, line.Failed
		return line.Metrics, nil
	}
	if m.EndToEnd, m.err = run(0); m.err == nil && b.traced {
		m.PerLayer, m.err = run(1)
	}
	return m
}

func firstError(results []*measured) error {
	for _, m := range results {
		if m.err != nil {
			return fmt.Errorf("%s: %w", m.Workload, m.err)
		}
	}
	return nil
}

func (b *bench) print(m *measured) {
	if m.EndToEnd != nil {
		printMetrics(os.Stdout, m.Workload, endToEnd, m.values(m.EndToEnd), m.Samples)
		if len(m.out.rec.modes) > 0 {
			printTiers(os.Stdout, m.out.rec.modes)
		}
	}
	if m.PerLayer != nil {
		printMetrics(os.Stdout, m.Workload+", per layer", perLayer, m.values(m.PerLayer), m.Samples)
	}
	if m.err != nil {
		fmt.Fprintf(os.Stdout, "  FAILED: %v\n", m.err)
	}
}

// writeResults stores the run, with the environment it ran in, as
// latest.json.
func (b *bench) writeResults(results []*measured) error {
	flags := map[string][]string{}
	for _, m := range results {
		flags[m.Workload] = m.flags
	}
	doc := struct {
		Environment environment `json:"environment"`
		Workloads   []*measured `json:"workloads"`
	}{recordEnvironment(b.seed, b.seconds, flags), results}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "latest.json")
	fmt.Printf("results written to %s\n", path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfcheck is the A/A test: the full set twice on the same build. The
// benchmark is only as good as its own repeatability, so every
// end-to-end metric of run B must be within its bound of run A.
func (b *bench) selfcheck(names []string) error {
	b.traced = false
	fmt.Println("== run A")
	a := b.runAll(names)
	if err := firstError(a); err != nil {
		return err
	}
	fmt.Println("== run B")
	bb := b.runAll(names)
	if err := firstError(bb); err != nil {
		return err
	}
	fmt.Printf("\n%-10s %-14s %12s %12s %8s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	exceeded := 0
	for i, ma := range a {
		va, vb := ma.values(ma.EndToEnd), bb[i].values(bb[i].EndToEnd)
		for _, d := range endToEnd {
			diff := (vb[d.Name] - va[d.Name]) / va[d.Name]
			verdict := "ok"
			if diff > d.Bound || diff < -d.Bound {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Printf("%-10s %-14s %12.4f %12.4f %+7.1f%% %6.0f%%  %s\n",
				ma.Workload, d.Name, va[d.Name], vb[d.Name], 100*diff, 100*d.Bound, verdict)
		}
		if ma.Failed != 0 || bb[i].Failed != 0 {
			exceeded++
			fmt.Printf("%-10s failed operations: A %d, B %d\n", ma.Workload, ma.Failed, bb[i].Failed)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("selfcheck: %d comparisons outside their bound", exceeded)
	}
	fmt.Println("selfcheck: every metric within its bound")
	return nil
}
