package experiments

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// quickSpec builds a small sweep over QuickScenario for runner tests.
func quickSpec(n int) SweepSpec {
	spec := SweepSpec{Name: "test"}
	for i := 0; i < n; i++ {
		sc := QuickScenario(uint64(100 + i))
		sc.Name = fmt.Sprintf("test/%d", i)
		spec.Variants = append(spec.Variants, SweepVariant{
			Label: fmt.Sprintf("v%d", i), Param: float64(i), Scenario: sc,
		})
	}
	return spec
}

func TestRunManyOrderAndDeterminism(t *testing.T) {
	spec := quickSpec(6)
	scs := make([]Scenario, len(spec.Variants))
	for i, v := range spec.Variants {
		scs[i] = v.Scenario
	}
	seq, err := RunMany(scs, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMany(scs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(scs) || len(par) != len(scs) {
		t.Fatalf("result counts: %d, %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Scenario != scs[i].Name {
			t.Errorf("result %d out of order: %s", i, seq[i].Scenario)
		}
		// Full-result equivalence: same stats, counters, event counts.
		if seq[i].JobStats != par[i].JobStats {
			t.Errorf("scenario %d: job stats diverge: %+v vs %+v", i, seq[i].JobStats, par[i].JobStats)
		}
		if seq[i].VMCounters != par[i].VMCounters {
			t.Errorf("scenario %d: vm counters diverge", i)
		}
		if seq[i].EventsFired != par[i].EventsFired {
			t.Errorf("scenario %d: event counts diverge: %d vs %d", i, seq[i].EventsFired, par[i].EventsFired)
		}
		if !reflect.DeepEqual(seq[i].JobOutcomes, par[i].JobOutcomes) {
			t.Errorf("scenario %d: job outcomes diverge", i)
		}
	}
}

func TestRunManyError(t *testing.T) {
	scs := []Scenario{QuickScenario(1), {Name: ""}, {Name: ""}}
	if _, err := RunMany(scs, 3); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestSweepSpecRunParallelIdentical(t *testing.T) {
	spec := quickSpec(5)
	seq, err := spec.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := spec.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("sweep points diverge:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestRunBitReproducible guards the package's core promise: the same
// scenario produces bit-identical recorded series on every run, even
// within one process (a map-iteration-order float summation once broke
// this in the vm scheduler's overload rescaling).
func TestRunBitReproducible(t *testing.T) {
	mk := func() *Result {
		sc := PaperScenario(42)
		sc.Name = "repro"
		sc.Horizon = 24000
		r, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	names := a.Recorder.SeriesNames()
	if len(names) == 0 {
		t.Fatal("no recorded series")
	}
	for _, name := range names {
		pa, pb := a.Recorder.Series(name).Points(), b.Recorder.Series(name).Points()
		if len(pa) != len(pb) {
			t.Fatalf("series %s: lengths %d vs %d", name, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("series %s idx %d (t=%v): %.17g vs %.17g",
					name, i, pa[i].T, pa[i].V, pb[i].V)
			}
		}
	}
}

// TestCycleSweepParallelIdentical is the acceptance check for the
// parallel harness: the default control-cycle sweep must produce the
// exact same SweepPoint slice at -parallel 4 as sequentially.
func TestCycleSweepParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full runs")
	}
	t0 := time.Now()
	seq, err := CycleSweepSpec(42, nil).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	seqD := time.Since(t0)
	t0 = time.Now()
	par, err := CycleSweepSpec(42, nil).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	parD := time.Since(t0)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("cycle sweep points diverge:\nseq: %+v\npar: %+v", seq, par)
	}
	t.Logf("cycle sweep wall-clock: sequential %v, parallel(4) %v (%.1fx)",
		seqD, parD, float64(seqD)/float64(parD))
}
