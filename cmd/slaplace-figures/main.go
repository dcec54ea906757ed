// Command slaplace-figures regenerates the paper's figures (and the
// extension experiments) from simulation, writing CSV data files and
// rendering each figure as an ASCII chart on stdout.
//
// Usage:
//
//	slaplace-figures [-fig 1|2|paper|diffserv|baselines|churn|failure|
//	                       spike|multiapp|all] [-seed n] [-out dir]
//
// Figure 1 — actual utility of the transactional workload and average
// hypothetical utility of the long-running workload over time.
// Figure 2 — CPU power demanded and allocated per workload over time.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"slaplace/internal/baseline"
	"slaplace/internal/core"
	"slaplace/internal/experiments"
	"slaplace/internal/metrics"
)

func main() {
	var (
		fig  = flag.String("fig", "all", "which figure to regenerate")
		seed = flag.Uint64("seed", 42, "RNG seed")
		out  = flag.String("out", "out", "output directory for CSV files")
	)
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	switch *fig {
	case "1", "2", "paper":
		paperFigures(*seed, *out, *fig)
	case "diffserv":
		diffserv(*seed, *out)
	case "baselines":
		baselines(*seed, *out)
	case "churn":
		churn(*seed)
	case "failure":
		failure(*seed, *out)
	case "spike":
		spike(*seed, *out)
	case "multiapp":
		multiapp(*seed, *out)
	case "all":
		paperFigures(*seed, *out, "paper")
		diffserv(*seed, *out)
		baselines(*seed, *out)
		churn(*seed)
		failure(*seed, *out)
		spike(*seed, *out)
		multiapp(*seed, *out)
	default:
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slaplace-figures:", err)
	os.Exit(1)
}

// writeCSV exports the named series of a result to a wide CSV file.
func writeCSV(r *experiments.Result, path string, names []string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := r.Recorder.WriteWideCSV(f, names); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

// chart renders recorder series as ASCII, dropping warm-up samples
// before t=1200 s so the figure axes match the steady measurement
// window (the paper's figures start at 10 000 s).
func chart(r *experiments.Result, title string, names []string) {
	series := make([]*metrics.Series, 0, len(names))
	for _, n := range names {
		series = append(series, r.Recorder.Series(n).Slice(1200, 1e18))
	}
	if err := metrics.RenderASCII(os.Stdout, title, series, 90, 18); err != nil {
		fatal(err)
	}
	fmt.Println()
}

// paperFigures runs the paper scenario once and emits Figure 1 and/or
// Figure 2.
func paperFigures(seed uint64, out, which string) {
	fmt.Printf("== paper scenario (seed %d): 25 nodes × 4 CPUs, 800-job stream, 600 s cycles ==\n", seed)
	r, err := experiments.Run(experiments.PaperScenario(seed))
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.SummarizeResult(r))
	fmt.Println()
	if which == "1" || which == "paper" {
		chart(r, "Figure 1: utility over time (transactional actual vs long-running hypothetical)",
			experiments.Fig1SeriesNames)
		writeCSV(r, filepath.Join(out, "fig1.csv"), experiments.Fig1SeriesNames)
	}
	if which == "2" || which == "paper" {
		chart(r, "Figure 2: CPU power demanded and allocated per workload (MHz)",
			experiments.Fig2SeriesNames)
		writeCSV(r, filepath.Join(out, "fig2.csv"), experiments.Fig2SeriesNames)
	}
}

// diffserv runs the gold/silver differentiation extension.
func diffserv(seed uint64, out string) {
	fmt.Printf("== diffserv scenario (seed %d): gold (tight goals) vs silver (loose goals) ==\n", seed)
	r, err := experiments.Run(experiments.DiffServScenario(seed))
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.SummarizeResult(r))
	for _, name := range []string{"gold", "silver"} {
		cs := r.ClassStats[name]
		fmt.Printf("  %-8s completed=%4d violations=%3d meanUtility=%.3f meanStretch=%.2f\n",
			name, cs.Completed, cs.GoalViolations, cs.MeanCompletionUtility, cs.MeanStretch)
	}
	names := []string{"trans/web/utility", "jobs/gold/hypoUtility", "jobs/silver/hypoUtility"}
	chart(r, "DiffServ: per-class utilities stay equalized under contention", names)
	writeCSV(r, filepath.Join(out, "diffserv.csv"), names)
}

// baselines compares every controller on the shortened paper workload.
func baselines(seed uint64, out string) {
	fmt.Printf("== baseline comparison (seed %d): shortened paper workload ==\n", seed)
	ctrls := []core.Controller{
		core.New(core.DefaultConfig()),
		baseline.FCFS{},
		baseline.EDF{},
		baseline.FairShare{},
		baseline.Static{BatchFraction: 0.6},
	}
	fmt.Printf("%-22s %9s %9s %9s %5s %9s %8s\n",
		"controller", "minWebU", "minJobU", "completed", "viol", "meanU", "suspends")
	for _, ctrl := range ctrls {
		r, err := experiments.Run(experiments.BaselineScenario(seed, ctrl))
		if err != nil {
			fatal(err)
		}
		minWeb := minSeries(r, "trans/web/utility")
		minJob := minSeries(r, "jobs/hypoUtility")
		cs := r.ClassStats["batch"]
		fmt.Printf("%-22s %9.3f %9.3f %9d %5d %9.3f %8d\n",
			r.Controller, minWeb, minJob, r.JobStats.Completed,
			r.JobStats.GoalViolations, cs.MeanCompletionUtility, r.VMCounters.Suspends)
	}
	fmt.Println()
}

// churn reports the churn-awareness ablation.
func churn(seed uint64) {
	fmt.Printf("== churn ablation (seed %d) ==\n", seed)
	for _, aware := range []bool{true, false} {
		r, err := experiments.Run(experiments.ChurnScenario(seed, aware))
		if err != nil {
			fatal(err)
		}
		mode := "churn-aware  "
		if !aware {
			mode = "churn-blind  "
		}
		fmt.Printf("  %s migrations=%4d suspends=%4d completed=%4d meanUtility=%.3f\n",
			mode, r.VMCounters.Migrations, r.VMCounters.Suspends,
			r.JobStats.Completed, r.ClassStats["batch"].MeanCompletionUtility)
	}
	fmt.Println()
}

// failure reports the node-failure robustness run.
func failure(seed uint64, out string) {
	fmt.Printf("== failure injection (seed %d): two node failures, one recovery ==\n", seed)
	r, err := experiments.Run(experiments.FailureScenario(seed))
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.SummarizeResult(r))
	fmt.Printf("  evictions=%d\n", r.VMCounters.Evictions)
	chart(r, "Failure run: utilities across two node failures", experiments.Fig1SeriesNames)
	writeCSV(r, filepath.Join(out, "failure.csv"), experiments.Fig1SeriesNames)
}

// spike reports the transactional-surge run.
func spike(seed uint64, out string) {
	fmt.Printf("== load spike (seed %d): 3x transactional surge at t=18000..25200 ==\n", seed)
	r, err := experiments.Run(experiments.SpikeScenario(seed))
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.SummarizeResult(r))
	names := []string{"trans/web/alloc", "jobs/alloc"}
	chart(r, "Spike: CPU allocation tracks the surge", names)
	writeCSV(r, filepath.Join(out, "spike.csv"), append(names, experiments.Fig1SeriesNames...))
}

// multiapp reports the three-SLA fairness run.
func multiapp(seed uint64, out string) {
	fmt.Printf("== multi-app fairness (seed %d): 1.5s / 3s / 6s SLAs, equal traffic ==\n", seed)
	r, err := experiments.Run(experiments.MultiAppScenario(seed))
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.SummarizeResult(r))
	var names []string
	for _, id := range []string{"gold-web", "silver-web", "bronze-web"} {
		u := r.Recorder.Series("trans/" + id + "/utility")
		a := r.Recorder.Series("trans/" + id + "/alloc")
		fmt.Printf("  %-11s meanUtility=%.3f meanAlloc=%.0f MHz\n",
			id, u.MeanOver(12000, 36000), a.MeanOver(12000, 36000))
		names = append(names, "trans/"+id+"/alloc")
	}
	chart(r, "Multi-app: tighter SLAs hold more CPU at equal traffic", names)
	writeCSV(r, filepath.Join(out, "multiapp.csv"), names)
}

// minSeries returns a series' minimum after warm-up (t >= 1200).
func minSeries(r *experiments.Result, name string) float64 {
	min := 1e18
	for _, p := range r.Recorder.Series(name).Points() {
		if p.T >= 1200 && p.V < min {
			min = p.V
		}
	}
	return min
}
