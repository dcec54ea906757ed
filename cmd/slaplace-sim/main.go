// Command slaplace-sim runs one scenario of the heterogeneous-workload
// placement simulator and reports the outcome.
//
// Usage:
//
//	slaplace-sim [flags]
//
//	-scenario name   paper | diffserv | churn-aware | churn-oblivious |
//	                 failure | spike | multiapp | ramp | flashcrowd |
//	                 quick (default "quick")
//	-config path     load the scenario from a JSON file instead
//	-job-trace path  replay a CSV job trace (replaces the scenario's
//	                 synthetic job streams)
//	-controller name utility | fcfs | edf | fairshare | static
//	                 (default "utility"; overrides the scenario's choice)
//	-forecast name   plan against predicted demand: constant | holt | ar
//	                 (default off: react to the last observation; the
//	                 same as a config file's {"predictor": name} block)
//	-chaos family    perturb the snapshot stream with a fault family:
//	                 crash | lag | flap | wave | stale | all
//	                 (default off; seeded from -seed)
//	-static-frac f   batch node fraction for the static controller
//	-shards k        plan the cluster as k concurrent shards (default 1;
//	                 "utility" shards use the default configuration)
//	-seed n          RNG seed (default 42)
//	-replicas r      run r replicas with seeds seed..seed+r-1 (the
//	                 export flags below cover the first replica only)
//	-parallel n      worker count for replicated runs (1 = sequential)
//	-horizon s       override the scenario horizon in seconds (must be
//	                 finite and positive)
//	-csv path        write all recorded series as long-format CSV
//	-jobs-csv path   write per-job outcomes as CSV
//	-series          print summary statistics for every recorded series
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"slaplace/api"
	"slaplace/internal/experiments"
	"slaplace/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, runs the scenario and its
// replicas, prints the outcome to stdout and returns the exit status —
// 2 for a bad flag or scenario, 1 for a failed run or export.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioName = fs.String("scenario", "quick", "scenario to run")
		configPath   = fs.String("config", "", "load scenario from JSON file")
		jobTrace     = fs.String("job-trace", "", "replay a CSV job trace")
		ctrlName     = fs.String("controller", "utility", "placement controller")
		staticFrac   = fs.Float64("static-frac", 0.6, "batch fraction for -controller static")
		forecastName = fs.String("forecast", "", "demand predictor: constant, holt, or ar (empty = reactive)")
		chaosFamily  = fs.String("chaos", "", "fault family to inject: crash, lag, flap, wave, stale, or all (empty = none)")
		shards       = fs.Int("shards", 1, "plan the cluster as this many concurrent shards (1 = unsharded)")
		seed         = fs.Uint64("seed", 42, "RNG seed")
		replicas     = fs.Int("replicas", 1, "replica count (seeds seed..seed+r-1)")
		parallel     = fs.Int("parallel", runtime.NumCPU(), "worker count for replicas")
		horizon      = fs.Float64("horizon", 0, "override horizon (seconds)")
		csvPath      = fs.String("csv", "", "write recorded series as CSV")
		jobsCSV      = fs.String("jobs-csv", "", "write per-job outcomes as CSV")
		series       = fs.Bool("series", false, "print per-series summaries")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "slaplace-sim:", err)
		return code
	}

	spec := sessionSpec(*ctrlName, *shards, *staticFrac, *forecastName, *scenarioName)
	fcCfg, err := spec.ForecastConfig()
	if err != nil {
		return fail(2, err)
	}
	sc, err := buildScenario(*scenarioName, *seed)
	if err != nil {
		return fail(2, err)
	}
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return fail(2, err)
		}
		sc, err = experiments.LoadScenario(f)
		f.Close()
		if err != nil {
			return fail(2, err)
		}
	}
	if *jobTrace != "" {
		f, err := os.Open(*jobTrace)
		if err != nil {
			return fail(2, err)
		}
		recs, err := trace.ReadJobs(f)
		f.Close()
		if err != nil {
			return fail(2, err)
		}
		sc.Jobs = nil
		sc.JobTrace = recs
		sc.TraceBase = experiments.PaperJobClass()
	}
	if *shards < 1 {
		return fail(2, errors.New("-shards must be >= 1"))
	}
	if *shards > 1 && *configPath != "" {
		// A config file's controller may carry tuning this flag cannot
		// rebuild per shard; the config format has its own knob.
		return fail(2, errors.New(`-shards does not apply to -config scenarios; set "controller": {"shards": K} in the config file`))
	}
	if *replicas < 1 {
		return fail(2, errors.New("-replicas must be >= 1"))
	}
	if *replicas > 1 && (*configPath != "" || *jobTrace != "") {
		return fail(2, errors.New("-replicas requires a named -scenario (not -config/-job-trace)"))
	}
	if *replicas > 1 && (*csvPath != "" || *jobsCSV != "" || *series) {
		fmt.Fprintln(stderr, "slaplace-sim: note: -csv/-jobs-csv/-series export the first replica only")
	}
	// Replicated runs (seeds seed..seed+r-1) fan out over RunMany's
	// worker pool; results print in seed order regardless.
	scs := []experiments.Scenario{sc}
	for i := 1; i < *replicas; i++ {
		replica, err := buildScenario(*scenarioName, *seed+uint64(i))
		if err != nil {
			return fail(2, err)
		}
		scs = append(scs, replica)
	}
	// Plain "utility" keeps the scenario's own controller. Otherwise
	// each replica gets its own controller instance: replicas run
	// concurrently, and sharing one would break RunMany's premise that
	// workers share no state.
	keep := spec.Shards <= 1 && (spec.Kind == "" || spec.Kind == "utility")
	for i := range scs {
		if !keep {
			if scs[i].Controller, err = spec.Build(); err != nil {
				return fail(2, err)
			}
		}
		if *horizon != 0 {
			scs[i].Horizon = *horizon
		}
		if fcCfg != nil {
			fc := *fcCfg
			scs[i].Forecast = &fc
		}
		if *chaosFamily != "" {
			// Each replica's faults are seeded by its own run seed.
			if scs[i].Chaos, err = experiments.ChaosFamilyConfig(*chaosFamily, *seed+uint64(i)); err != nil {
				return fail(2, err)
			}
		}
		if err := scs[i].Validate(); err != nil {
			return fail(2, err)
		}
	}
	results, err := experiments.RunMany(scs, *parallel)
	if err != nil {
		return fail(1, err)
	}
	for i, r := range results {
		if *replicas > 1 {
			fmt.Fprintf(stdout, "[seed %d] ", *seed+uint64(i))
		}
		fmt.Fprintln(stdout, experiments.SummarizeResult(r))
		printClassStats(stdout, r)
	}
	result := results[0]

	if *series {
		for _, name := range result.Recorder.SeriesNames() {
			s := result.Recorder.Series(name).Summarize()
			fmt.Fprintf(stdout, "  series %-28s n=%4d mean=%12.3f min=%12.3f max=%12.3f last=%12.3f\n",
				name, s.N, s.Mean, s.Min, s.Max, s.Last)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := result.Recorder.WriteLongCSV(f); err != nil {
			return fail(1, err)
		}
		fmt.Fprintln(stdout, "wrote", *csvPath)
	}
	if *jobsCSV != "" {
		f, err := os.Create(*jobsCSV)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := experiments.WriteJobOutcomes(f, result.JobOutcomes); err != nil {
			return fail(1, err)
		}
		fmt.Fprintln(stdout, "wrote", *jobsCSV)
	}
	return 0
}

// printClassStats prints per-class outcomes in deterministic order.
func printClassStats(w io.Writer, r *experiments.Result) {
	names := make([]string, 0, len(r.ClassStats))
	for name := range r.ClassStats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := r.ClassStats[name]
		fmt.Fprintf(w, "  class %-10s completed=%4d violations=%3d meanUtility=%.3f meanStretch=%.2f\n",
			name, cs.Completed, cs.GoalViolations, cs.MeanCompletionUtility, cs.MeanStretch)
	}
}

// buildScenario maps a name to a canned scenario.
func buildScenario(name string, seed uint64) (experiments.Scenario, error) {
	switch name {
	case "paper":
		return experiments.PaperScenario(seed), nil
	case "diffserv":
		return experiments.DiffServScenario(seed), nil
	case "churn-aware":
		return experiments.ChurnScenario(seed, true), nil
	case "churn-oblivious":
		return experiments.ChurnScenario(seed, false), nil
	case "failure":
		return experiments.FailureScenario(seed), nil
	case "spike":
		return experiments.SpikeScenario(seed), nil
	case "multiapp":
		return experiments.MultiAppScenario(seed), nil
	case "ramp":
		return experiments.RampScenario(seed), nil
	case "flashcrowd":
		return experiments.FlashCrowdScenario(seed), nil
	case "quick":
		return experiments.QuickScenario(seed), nil
	default:
		return experiments.Scenario{}, fmt.Errorf("unknown scenario %q", name)
	}
}

// sessionSpec maps the controller flags onto the controller spec the
// scenario format uses. A sharded "utility" rebuilds the scenario's own
// utility configuration per shard: the churn-oblivious scenario is the
// one canned scenario that tunes it, so sharding never silently
// changes the policy under test.
func sessionSpec(controller string, shards int, staticFrac float64, predictor, scenario string) experiments.ControllerJSON {
	spec := experiments.ControllerJSON{Kind: controller, Shards: shards}
	switch controller {
	case "static":
		spec.BatchFraction = staticFrac
	case "", "utility":
		spec.ChurnOblivious = scenario == "churn-oblivious"
	}
	if predictor != "" {
		spec.Forecast = &api.ForecastConfig{Predictor: predictor}
	}
	return spec
}
