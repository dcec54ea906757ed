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
//	-horizon s       override the scenario horizon in seconds
//	-csv path        write all recorded series as long-format CSV
//	-series          print summary statistics for every recorded series
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"slaplace"

	"slaplace/api"
	"slaplace/internal/experiments"
	"slaplace/internal/trace"
)

func main() {
	var (
		scenarioName = flag.String("scenario", "quick", "scenario to run")
		configPath   = flag.String("config", "", "load scenario from JSON file")
		jobTrace     = flag.String("job-trace", "", "replay a CSV job trace")
		ctrlName     = flag.String("controller", "utility", "placement controller")
		staticFrac   = flag.Float64("static-frac", 0.6, "batch fraction for -controller static")
		forecastName = flag.String("forecast", "", "demand predictor: constant, holt, or ar (empty = reactive)")
		chaosFamily  = flag.String("chaos", "", "fault family to inject: crash, lag, flap, wave, stale, or all (empty = none)")
		shards       = flag.Int("shards", 1, "plan the cluster as this many concurrent shards (1 = unsharded)")
		seed         = flag.Uint64("seed", 42, "RNG seed")
		replicas     = flag.Int("replicas", 1, "replica count (seeds seed..seed+r-1)")
		parallel     = flag.Int("parallel", runtime.NumCPU(), "worker count for replicas")
		horizon      = flag.Float64("horizon", 0, "override horizon (seconds)")
		csvPath      = flag.String("csv", "", "write recorded series as CSV")
		jobsCSV      = flag.String("jobs-csv", "", "write per-job outcomes as CSV")
		series       = flag.Bool("series", false, "print per-series summaries")
	)
	flag.Parse()

	spec := sessionSpec(*ctrlName, *shards, *staticFrac, *forecastName, *scenarioName)
	fcCfg, err := spec.ForecastConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
		os.Exit(2)
	}
	sc, err := buildScenario(*scenarioName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
		os.Exit(2)
	}
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
			os.Exit(2)
		}
		sc, err = experiments.LoadScenario(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
			os.Exit(2)
		}
	}
	if *jobTrace != "" {
		f, err := os.Open(*jobTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
			os.Exit(2)
		}
		recs, err := trace.ReadJobs(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
			os.Exit(2)
		}
		sc.Jobs = nil
		sc.JobTrace = recs
		sc.TraceBase = experiments.PaperJobClass()
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "slaplace-sim: -shards must be >= 1")
		os.Exit(2)
	}
	if *shards > 1 && *configPath != "" {
		// A config file's controller may carry tuning this flag cannot
		// rebuild per shard; the config format has its own knob.
		fmt.Fprintln(os.Stderr, `slaplace-sim: -shards does not apply to -config scenarios; set "controller": {"shards": K} in the config file`)
		os.Exit(2)
	}
	if *replicas < 1 {
		fmt.Fprintln(os.Stderr, "slaplace-sim: -replicas must be >= 1")
		os.Exit(2)
	}
	if *replicas > 1 && (*configPath != "" || *jobTrace != "") {
		fmt.Fprintln(os.Stderr, "slaplace-sim: -replicas requires a named -scenario (not -config/-job-trace)")
		os.Exit(2)
	}
	if *replicas > 1 && (*csvPath != "" || *jobsCSV != "" || *series) {
		fmt.Fprintln(os.Stderr, "slaplace-sim: note: -csv/-jobs-csv/-series export the first replica only")
	}
	// Replicated runs (seeds seed..seed+r-1) fan out over RunMany's
	// worker pool; results print in seed order regardless.
	scs := []slaplace.Scenario{sc}
	for i := 1; i < *replicas; i++ {
		replica, err := buildScenario(*scenarioName, *seed+uint64(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
			os.Exit(2)
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
				fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
				os.Exit(2)
			}
		}
		if *horizon > 0 {
			scs[i].Horizon = *horizon
		}
		if fcCfg != nil {
			fc := *fcCfg
			scs[i].Forecast = &fc
		}
		if *chaosFamily != "" {
			// Each replica's faults are seeded by its own run seed.
			if scs[i].Chaos, err = slaplace.ChaosFamilyConfig(*chaosFamily, *seed+uint64(i)); err != nil {
				fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
				os.Exit(2)
			}
		}
	}
	results, err := slaplace.RunMany(scs, *parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
		os.Exit(1)
	}
	for i, r := range results {
		if *replicas > 1 {
			fmt.Printf("[seed %d] ", *seed+uint64(i))
		}
		fmt.Println(slaplace.Summarize(r))
		printClassStats(r)
	}
	result := results[0]

	if *series {
		for _, name := range result.Recorder.SeriesNames() {
			s := result.Recorder.Series(name).Summarize()
			fmt.Printf("  series %-28s n=%4d mean=%12.3f min=%12.3f max=%12.3f last=%12.3f\n",
				name, s.N, s.Mean, s.Min, s.Max, s.Last)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := result.Recorder.WriteLongCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *csvPath)
	}
	if *jobsCSV != "" {
		f, err := os.Create(*jobsCSV)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := experiments.WriteJobOutcomes(f, result.JobOutcomes); err != nil {
			fmt.Fprintln(os.Stderr, "slaplace-sim:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *jobsCSV)
	}
}

// printClassStats prints per-class outcomes in deterministic order.
func printClassStats(r *slaplace.Result) {
	names := make([]string, 0, len(r.ClassStats))
	for name := range r.ClassStats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := r.ClassStats[name]
		fmt.Printf("  class %-10s completed=%4d violations=%3d meanUtility=%.3f meanStretch=%.2f\n",
			name, cs.Completed, cs.GoalViolations, cs.MeanCompletionUtility, cs.MeanStretch)
	}
}

// buildScenario maps a name to a canned scenario.
func buildScenario(name string, seed uint64) (slaplace.Scenario, error) {
	switch name {
	case "paper":
		return slaplace.PaperScenario(seed), nil
	case "diffserv":
		return slaplace.DiffServScenario(seed), nil
	case "churn-aware":
		return slaplace.ChurnScenario(seed, true), nil
	case "churn-oblivious":
		return slaplace.ChurnScenario(seed, false), nil
	case "failure":
		return slaplace.FailureScenario(seed), nil
	case "spike":
		return slaplace.SpikeScenario(seed), nil
	case "multiapp":
		return slaplace.MultiAppScenario(seed), nil
	case "ramp":
		return slaplace.RampScenario(seed), nil
	case "flashcrowd":
		return slaplace.FlashCrowdScenario(seed), nil
	case "quick":
		return slaplace.QuickScenario(seed), nil
	default:
		return slaplace.Scenario{}, fmt.Errorf("unknown scenario %q", name)
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
