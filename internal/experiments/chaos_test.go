package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"slaplace/internal/baseline"
	"slaplace/internal/core"
	"slaplace/internal/shard"
)

// The chaos replay suite: every fault family × every controller must
// replay deterministically (same seed → same plan-sequence digest),
// pass the core.CheckPlan audit on every cycle, and emit the SLA and
// migration series the chaos benchmarks compare.

// chaosControllers returns the five policies by constructor.
func chaosControllers() map[string]func() core.Controller {
	return map[string]func() core.Controller{
		"utility":   func() core.Controller { return core.New(core.DefaultConfig()) },
		"fcfs":      func() core.Controller { return baseline.FCFS{} },
		"edf":       func() core.Controller { return baseline.EDF{} },
		"fairshare": func() core.Controller { return baseline.FairShare{} },
		"static":    func() core.Controller { return baseline.Static{BatchFraction: 0.6} },
	}
}

// runChaosDigest executes one family × controller run with plan
// digesting and returns the aggregate digest plus the result.
func runChaosDigest(t *testing.T, family string, ctrl core.Controller) (string, *Result) {
	t.Helper()
	sc, err := ChaosScenario(42, family)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	dc := &digestController{inner: ctrl, hash: h}
	sc.Controller = dc
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("chaos %s: %v", family, err)
	}
	if dc.cycles == 0 {
		t.Fatalf("chaos %s planned zero cycles", family)
	}
	return hex.EncodeToString(h.Sum(nil)), res
}

// checkChaosResult asserts the per-run acceptance properties shared by
// every family × controller combination.
func checkChaosResult(t *testing.T, family string, res *Result) {
	t.Helper()
	if res.InvariantViolations > 0 {
		t.Errorf("%d invariant violations; first: %s",
			res.InvariantViolations, res.FirstInvariantViolation)
	}
	s := res.ChaosStats
	if s.Cycles == 0 {
		t.Error("chaos engine stepped zero cycles")
	}
	if s.WorldErrors > 0 {
		t.Errorf("%d world errors injecting faults", s.WorldErrors)
	}
	switch family {
	case "crash":
		if s.Crashes == 0 {
			t.Error("crash family injected no crashes")
		}
	case "lag":
		if s.Crashes == 0 || s.Restores == 0 {
			t.Errorf("lag family: crashes=%d restores=%d, want both > 0", s.Crashes, s.Restores)
		}
	case "flap":
		if s.FlapCycles == 0 {
			t.Error("flap family hid no cycles")
		}
	case "wave":
		if s.Departed == 0 || s.Returned == 0 {
			t.Errorf("wave family: departed=%d returned=%d, want both > 0", s.Departed, s.Returned)
		}
	case "stale":
		if s.Duplicates == 0 || s.Regressions == 0 {
			t.Errorf("stale family: duplicates=%d regressions=%d, want both > 0", s.Duplicates, s.Regressions)
		}
	case "all":
		if s.Crashes == 0 || s.FlapCycles == 0 || s.Departed == 0 ||
			s.Duplicates+s.Regressions == 0 {
			t.Errorf("all family missed an injection: %+v", s)
		}
	}
	// The comparison metrics every chaos run must emit: SLA violation
	// cycles (from the measured utility series) and migration counts,
	// both cumulative (ops/*) and per-plan (chaos/*).
	rec := res.Recorder
	for _, name := range []string{
		"trans/web/utility", "ops/migrations", "ops/suspends",
		"chaos/nodesVisible", "chaos/planMigrations", "chaos/planSuspends",
	} {
		if !slices.Contains(rec.SeriesNames(), name) {
			t.Errorf("missing series %q", name)
		}
	}
	if v := SLAViolations(res); v < 0 {
		t.Errorf("SLA violation count %d < 0", v)
	}
}

func TestChaosReplayAllControllers(t *testing.T) {
	for _, family := range ChaosFamilies {
		family := family
		t.Run(family, func(t *testing.T) {
			for name, newCtrl := range chaosControllers() {
				name, newCtrl := name, newCtrl
				t.Run(name, func(t *testing.T) {
					d1, res := runChaosDigest(t, family, newCtrl())
					checkChaosResult(t, family, res)
					d2, res2 := runChaosDigest(t, family, newCtrl())
					if d1 != d2 {
						t.Errorf("replay digest mismatch: %s vs %s", d1, d2)
					}
					if res.Cycles != res2.Cycles {
						t.Errorf("replay cycle counts differ: %d vs %d", res.Cycles, res2.Cycles)
					}
				})
			}
		})
	}
}

// TestChaosSharded runs the combined family through a sharded planner:
// merged multi-shard plans must survive the same audit, and the run
// must replay digest-identically.
func TestChaosSharded(t *testing.T) {
	newCtrl := func() core.Controller {
		return shard.New(shard.Config{
			Shards:        3,
			NewController: func() core.Controller { return core.New(core.DefaultConfig()) },
		})
	}
	d1, res := runChaosDigest(t, "all", newCtrl())
	checkChaosResult(t, "all", res)
	d2, _ := runChaosDigest(t, "all", newCtrl())
	if d1 != d2 {
		t.Errorf("sharded replay digest mismatch: %s vs %s", d1, d2)
	}
}

// TestChaosScenarioValidation pins family name handling.
func TestChaosScenarioValidation(t *testing.T) {
	if _, err := ChaosScenario(1, "nosuch"); err == nil {
		t.Error("unknown family must error")
	}
	for _, family := range ChaosFamilies {
		if _, err := ChaosScenario(1, family); err != nil {
			t.Errorf("family %s: %v", family, err)
		}
	}
}
