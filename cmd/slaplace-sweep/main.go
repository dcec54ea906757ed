// Command slaplace-sweep runs the sensitivity studies: control-cycle
// period, utility-function shape, transactional-load scaling and
// eviction-margin hysteresis — each over the shortened paper workload
// with identical traces. Variants fan out across a worker pool; the
// points are identical whatever the parallelism.
//
//	slaplace-sweep [-sweep cycle|utility|load|margin|all] [-seed n] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"slaplace/internal/experiments"
)

func main() {
	var (
		which    = flag.String("sweep", "all", "cycle | utility | load | margin | all")
		seed     = flag.Uint64("seed", 42, "RNG seed")
		parallel = flag.Int("parallel", runtime.NumCPU(), "worker count (1 = sequential)")
	)
	flag.Parse()

	sweeps := map[string]struct {
		title string
		spec  func() (experiments.SweepSpec, error)
	}{
		"cycle": {"control-cycle", func() (experiments.SweepSpec, error) {
			return experiments.CycleSweepSpec(*seed, nil), nil
		}},
		"utility": {"utility-function", func() (experiments.SweepSpec, error) {
			return experiments.UtilityFnSweepSpec(*seed), nil
		}},
		"load": {"transactional-load", func() (experiments.SweepSpec, error) {
			return experiments.LoadSweepSpec(*seed, nil)
		}},
		"margin": {"eviction-margin", func() (experiments.SweepSpec, error) {
			return experiments.EvictionMarginSweepSpec(*seed, nil)
		}},
	}
	run := func(name string) {
		sw := sweeps[name]
		fmt.Printf("== %s sweep (seed %d) ==\n", sw.title, *seed)
		spec, err := sw.spec()
		var points []experiments.SweepPoint
		if err == nil {
			points, err = spec.Run(*parallel)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "slaplace-sweep:", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatSweep(points))
		fmt.Println()
	}

	switch *which {
	case "all":
		for _, name := range []string{"cycle", "utility", "load", "margin"} {
			run(name)
		}
	default:
		if _, ok := sweeps[*which]; !ok {
			fmt.Fprintf(os.Stderr, "slaplace-sweep: unknown sweep %q\n", *which)
			os.Exit(2)
		}
		run(*which)
	}
}
