package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"slaplace/api"
	"slaplace/internal/chaos"
	"slaplace/internal/res"
	"slaplace/internal/trace"
	"slaplace/internal/vm"
	"slaplace/internal/workload/batch"
)

// validJSON is a complete scenario document exercising most knobs.
const validJSON = `{
  "name": "json-test",
  "seed": 7,
  "horizon": 7200,
  "nodes": 4,
  "nodeCPUMHz": 18000,
  "nodeMemMB": 16000,
  "defaultCosts": true,
  "controller": {"kind": "utility"},
  "cyclePeriod": 300,
  "firstCycle": 60,
  "actuationDelay": 25,
  "jobs": [{
    "name": "crunch",
    "workMHzs": 5400000,
    "maxSpeedMHz": 4500,
    "memMB": 5000,
    "goalStretch": 3,
    "phases": [{"start": 0, "meanInterarrival": 400}],
    "maxJobs": 10,
    "initialBurst": 2,
    "idPrefix": "crunch"
  }],
  "apps": [{
    "id": "web",
    "rtGoal": 3,
    "demandMHzs": 1350,
    "coreSpeedMHz": 4500,
    "pattern": {"kind": "constant", "rate": 10},
    "instanceMemMB": 1000,
    "maxPerInstanceMHz": 18000,
    "minInstances": 1,
    "noiseCV": 0.03,
    "estimateLambda": true
  }],
  "faults": [{"node": "node-002", "failAt": 3000, "restoreAt": 5000}]
}`

func TestLoadScenarioAndRun(t *testing.T) {
	sc, err := LoadScenario(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "json-test" || sc.Nodes != 4 || len(sc.Jobs) != 1 || len(sc.Apps) != 1 {
		t.Fatalf("scenario shape wrong: %+v", sc)
	}
	if len(sc.Faults) != 1 || sc.Faults[0].Node != "node-002" {
		t.Errorf("faults: %+v", sc.Faults)
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.JobStats.Completed == 0 {
		t.Error("JSON-built scenario completed no jobs")
	}
}

func TestLoadScenarioRejectsUnknownFields(t *testing.T) {
	in := `{"name": "x", "bogusField": 1}`
	if _, err := LoadScenario(strings.NewReader(in)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestLoadScenarioRejectsInvalid(t *testing.T) {
	// Valid JSON, invalid scenario (no horizon).
	in := `{"name": "x", "nodes": 1, "nodeCPUMHz": 1, "nodeMemMB": 1,
	        "controller": {"kind": "utility"}, "cyclePeriod": 10}`
	if _, err := LoadScenario(strings.NewReader(in)); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestControllerJSONKinds(t *testing.T) {
	cases := []struct {
		in      ControllerJSON
		wantErr bool
		name    string
	}{
		{ControllerJSON{}, false, "utility-placement"},
		{ControllerJSON{Kind: "fcfs"}, false, "fcfs"},
		{ControllerJSON{Kind: "edf"}, false, "edf"},
		{ControllerJSON{Kind: "fairshare"}, false, "fairshare"},
		{ControllerJSON{Kind: "static", BatchFraction: 0.5}, false, "static[batch=50%]"},
		{ControllerJSON{Kind: "static"}, true, ""},
		{ControllerJSON{Kind: "alien"}, true, ""},
		{ControllerJSON{Kind: "utility", MigrationGain: 0.5}, true, ""},
	}
	for i, c := range cases {
		ctrl, err := c.in.Build()
		if c.wantErr {
			if err == nil {
				t.Errorf("case %d: expected error", i)
			}
			continue
		}
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if ctrl.Name() != c.name {
			t.Errorf("case %d: name %q, want %q", i, ctrl.Name(), c.name)
		}
	}
}

func TestControllerJSONUtilityKnobs(t *testing.T) {
	zero := 0
	cj := ControllerJSON{
		Kind:                  "utility",
		ShareTolerance:        0.1,
		MigrationThreshold:    0.3,
		MigrationGain:         2,
		MaxMigrationsPerCycle: &zero,
		ChurnOblivious:        true,
	}
	if _, err := cj.Build(); err != nil {
		t.Fatalf("tuned utility controller rejected: %v", err)
	}
}

// TestLoadScenarioForecastBlock: a controller.forecast block turns on
// predictive planning; a typo'd block name or a bad predictor is an
// error, never a silent fall-back to reactive planning.
func TestLoadScenarioForecastBlock(t *testing.T) {
	withForecast := strings.Replace(validJSON,
		`"controller": {"kind": "utility"}`,
		`"controller": {"kind": "utility", "forecast": {"predictor": "holt", "window": 8}}`, 1)
	sc, err := LoadScenario(strings.NewReader(withForecast))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Forecast == nil || sc.Forecast.Predictor != "holt" || sc.Forecast.Window != 8 {
		t.Fatalf("forecast block not applied: %+v", sc.Forecast)
	}
	if sc.Forecast.CorrectionAlpha == 0 {
		t.Error("omitted correctionAlpha built as 0 (disabled), want the default weight")
	}

	// Explicit 0 disables correction.
	zeroAlpha := strings.Replace(validJSON,
		`"controller": {"kind": "utility"}`,
		`"controller": {"kind": "utility", "forecast": {"predictor": "holt", "correctionAlpha": 0}}`, 1)
	sc, err = LoadScenario(strings.NewReader(zeroAlpha))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Forecast.CorrectionAlpha != 0 {
		t.Errorf("explicit correctionAlpha 0 built as %v", sc.Forecast.CorrectionAlpha)
	}

	// A typo'd block name must be a hard error (unknown field), not a
	// silently reactive run.
	typo := strings.Replace(validJSON,
		`"controller": {"kind": "utility"}`,
		`"controller": {"kind": "utility", "forecst": {"predictor": "holt"}}`, 1)
	if _, err := LoadScenario(strings.NewReader(typo)); err == nil {
		t.Error(`typo'd "forecst" block accepted silently`)
	}

	// A bad predictor inside a well-named block is also a hard error.
	bad := strings.Replace(validJSON,
		`"controller": {"kind": "utility"}`,
		`"controller": {"kind": "utility", "forecast": {"predictor": "arima"}}`, 1)
	if _, err := LoadScenario(strings.NewReader(bad)); err == nil {
		t.Error("unknown predictor accepted")
	}
}

// TestLoadScenarioChaosBlock: a chaos block arms the fault engine with
// exactly the configured families; an invalid schedule is a hard error.
func TestLoadScenarioChaosBlock(t *testing.T) {
	withChaos := strings.Replace(validJSON,
		`"faults": [{"node": "node-002", "failAt": 3000, "restoreAt": 5000}]`,
		`"faults": [],
		 "chaos": {"seed": 9,
		           "crash": {"every": 4, "start": 2, "detectionLag": 2},
		           "stale": {"duplicateEvery": 3}}`, 1)
	sc, err := LoadScenario(strings.NewReader(withChaos))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Chaos == nil {
		t.Fatal("chaos block not applied")
	}
	if sc.Chaos.Seed != 9 || sc.Chaos.Crash == nil || sc.Chaos.Crash.DetectionLag != 2 ||
		sc.Chaos.Stale == nil || sc.Chaos.Stale.DuplicateEvery != 3 {
		t.Fatalf("chaos config wrong: %+v", sc.Chaos)
	}
	if sc.Chaos.Flap != nil || sc.Chaos.Wave != nil {
		t.Fatalf("unconfigured families armed: %+v", sc.Chaos)
	}

	// An invalid schedule inside the block must fail the load.
	bad := strings.Replace(validJSON,
		`"faults": [{"node": "node-002", "failAt": 3000, "restoreAt": 5000}]`,
		`"faults": [], "chaos": {"crash": {"every": 0, "start": 1}}`, 1)
	if _, err := LoadScenario(strings.NewReader(bad)); err == nil {
		t.Error("invalid chaos schedule accepted")
	}

	// A typo'd family name is an unknown field, not a silent no-op.
	typo := strings.Replace(validJSON,
		`"faults": [{"node": "node-002", "failAt": 3000, "restoreAt": 5000}]`,
		`"faults": [], "chaos": {"crsh": {"every": 4, "start": 2}}`, 1)
	if _, err := LoadScenario(strings.NewReader(typo)); err == nil {
		t.Error(`typo'd "crsh" family accepted silently`)
	}
}

// taggedBlocksJSON sets every block that decodes straight into its
// owning type: custom costs, a submission-disabled phase, a node fault
// and all four chaos families.
var taggedBlocksJSON = strings.NewReplacer(
	`"defaultCosts": true,`,
	`"costs": {"startLatency": 11, "suspendLatency": 12, "resumeLatency": 13, "migrateMBps": 14, "migrateFloor": 15},`,
	`"phases": [{"start": 0, "meanInterarrival": 400}]`,
	`"phases": [{"start": 0, "meanInterarrival": 400}, {"start": 3600, "disable": true}]`,
	`"faults": [{"node": "node-002", "failAt": 3000, "restoreAt": 5000}]`,
	`"faults": [{"node": "node-002", "failAt": 3000, "restoreAt": 5000}],
	 "chaos": {"seed": 3,
	           "crash": {"every": 4, "start": 2, "detectionLag": 2, "restoreAfter": 5},
	           "flap": {"nodes": 1, "period": 2, "start": 3},
	           "wave": {"departAt": 6, "count": 2, "returnAt": 10},
	           "stale": {"duplicateEvery": 3, "regressEvery": 5}}`,
).Replace(validJSON)

// TestLoadScenarioTaggedBlocks: the costs, phase, fault and chaos
// blocks decode field for field into vm.Costs, batch.Phase, NodeFault
// and chaos.Config.
func TestLoadScenarioTaggedBlocks(t *testing.T) {
	sc, err := LoadScenario(strings.NewReader(taggedBlocksJSON))
	if err != nil {
		t.Fatal(err)
	}
	if want := (vm.Costs{StartLatency: 11, SuspendLatency: 12, ResumeLatency: 13, MigrateMBps: 14, MigrateFloor: 15}); sc.Costs != want {
		t.Errorf("costs %+v, want %+v", sc.Costs, want)
	}
	wantPhases := []batch.Phase{{Start: 0, MeanInterarrival: 400}, {Start: 3600, DisableSubmission: true}}
	if !reflect.DeepEqual(sc.Jobs[0].Phases, wantPhases) {
		t.Errorf("phases %+v, want %+v", sc.Jobs[0].Phases, wantPhases)
	}
	if want := []NodeFault{{Node: "node-002", FailAt: 3000, RestoreAt: 5000}}; !reflect.DeepEqual(sc.Faults, want) {
		t.Errorf("faults %+v, want %+v", sc.Faults, want)
	}
	want := &chaos.Config{
		Seed:  3,
		Crash: &chaos.Crash{Every: 4, Start: 2, DetectionLag: 2, RestoreAfter: 5},
		Flap:  &chaos.Flap{Nodes: 1, Period: 2, Start: 3},
		Wave:  &chaos.Wave{DepartAt: 6, Count: 2, ReturnAt: 10},
		Stale: &chaos.Stale{DuplicateEvery: 3, RegressEvery: 5},
	}
	if !reflect.DeepEqual(sc.Chaos, want) {
		t.Errorf("chaos %+v, want %+v", sc.Chaos, want)
	}
}

// TestLoadScenarioRejectsGoFieldNames: a tagged type answers to its
// JSON names only; a Go field name that differs from it is an unknown
// field.
func TestLoadScenarioRejectsGoFieldNames(t *testing.T) {
	for _, c := range []struct{ from, to string }{
		{`"disable": true`, `"disableSubmission": true`},
		{`"disable": true`, `"DisableSubmission": true`},
		{`"nodeCPUMHz": 18000`, `"nodeCPU": 18000`},
		{`"nodeMemMB": 16000`, `"nodeMem": 16000`},
		{`"maxPerInstanceMHz": 18000`, `"maxPerInstance": 18000`},
	} {
		doc := strings.Replace(taggedBlocksJSON, c.from, c.to, 1)
		if doc == taggedBlocksJSON {
			t.Fatalf("%s: not in the document", c.from)
		}
		if _, err := LoadScenario(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted", c.to)
		}
	}
}

// TestControllerJSONRejectsMisappliedKeys: known keys that the selected
// controller kind ignores are configuration errors (satellite of the
// silent-misconfiguration guarantee — see TestLoadScenarioForecastBlock
// for the unknown-key side).
func TestControllerJSONRejectsMisappliedKeys(t *testing.T) {
	zero := 0
	cases := []struct {
		name string
		in   ControllerJSON
	}{
		{"utility+batchFraction", ControllerJSON{Kind: "utility", BatchFraction: 0.5}},
		{"fcfs+batchFraction", ControllerJSON{Kind: "fcfs", BatchFraction: 0.5}},
		{"edf+shareTolerance", ControllerJSON{Kind: "edf", ShareTolerance: 0.1}},
		{"fairshare+churnOblivious", ControllerJSON{Kind: "fairshare", ChurnOblivious: true}},
		{"fcfs+maxMigrations", ControllerJSON{Kind: "fcfs", MaxMigrationsPerCycle: &zero}},
		{"static+migrationGain", ControllerJSON{Kind: "static", BatchFraction: 0.5, MigrationGain: 2}},
	}
	for _, c := range cases {
		if _, err := c.in.Build(); err == nil {
			t.Errorf("%s: misapplied key accepted", c.name)
		}
	}
	// The forecast key applies to every kind (it configures the control
	// session, not the controller).
	ok := ControllerJSON{Kind: "fcfs", Forecast: &api.ForecastConfig{Predictor: "constant"}}
	if _, err := ok.Build(); err != nil {
		t.Errorf("forecast on a baseline kind rejected: %v", err)
	}
}

func TestFnJSON(t *testing.T) {
	if fn, err := (FnJSON{}).Build(); err != nil || fn != nil {
		t.Errorf("empty fn = (%v, %v), want nil default", fn, err)
	}
	if fn, err := (FnJSON{Kind: "linear", Floor: -2}).Build(); err != nil || fn == nil {
		t.Errorf("linear fn: %v", err)
	}
	if fn, err := (FnJSON{Kind: "sigmoid", K: 4}).Build(); err != nil || fn == nil {
		t.Errorf("sigmoid fn: %v", err)
	}
	if _, err := (FnJSON{Kind: "sigmoid"}).Build(); err == nil {
		t.Error("sigmoid without k accepted")
	}
	if _, err := (FnJSON{Kind: "linear", Floor: 2}).Build(); err == nil {
		t.Error("linear floor >= 1 accepted")
	}
	if _, err := (FnJSON{Kind: "alien"}).Build(); err == nil {
		t.Error("unknown fn accepted")
	}
}

func TestPatternJSON(t *testing.T) {
	if p, err := (PatternJSON{Kind: "constant", Rate: 5}).Build(); err != nil || p.Lambda(0) != 5 {
		t.Errorf("constant: %v", err)
	}
	if p, err := (PatternJSON{Kind: "step", Times: []float64{0, 10}, Rates: []float64{1, 2}}).Build(); err != nil || p.Lambda(11) != 2 {
		t.Errorf("step: %v", err)
	}
	if _, err := (PatternJSON{Kind: "diurnal", Base: 5, Amplitude: 2, Period: 100}).Build(); err != nil {
		t.Errorf("diurnal: %v", err)
	}
	if _, err := (PatternJSON{Kind: "trace", Times: []float64{0, 10}, Rates: []float64{1, 2}}).Build(); err != nil {
		t.Errorf("trace: %v", err)
	}
	if _, err := (PatternJSON{Kind: "diurnal"}).Build(); err == nil {
		t.Error("diurnal without period accepted")
	}
	if _, err := (PatternJSON{Kind: "alien"}).Build(); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestTraceScenarioRuns(t *testing.T) {
	sc := QuickScenario(9)
	sc.Jobs = nil
	sc.JobTrace = nil
	sc.TraceBase = PaperJobClass()
	for i := 0; i < 5; i++ {
		sc.JobTrace = append(sc.JobTrace, traceRecord(i))
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Submitted != 5 {
		t.Errorf("submitted %d, want 5 trace jobs", r.Submitted)
	}
	if r.JobStats.Completed != 5 {
		t.Errorf("completed %d of 5 trace jobs", r.JobStats.Completed)
	}
}

// traceRecord builds a short test job record.
func traceRecord(i int) trace.JobRecord {
	return trace.JobRecord{
		ID:       fmt.Sprintf("tr-%d", i),
		Submit:   float64(i * 120),
		Work:     res.Work(4500 * 600),
		MaxSpeed: 4500,
		Mem:      5000,
	}
}

// TestControllerJSONShards: the scenario config's shards knob wraps
// the selected kind in a sharded planner; bad values are rejected.
func TestControllerJSONShards(t *testing.T) {
	ctrl, err := ControllerJSON{Kind: "edf", Shards: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ctrl.Name(), "sharded4(edf)"; got != want {
		t.Errorf("controller name %q, want %q", got, want)
	}
	if ctrl, err = (ControllerJSON{Shards: 1}).Build(); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Name(); got != "utility-placement" {
		t.Errorf("shards=1 built %q, want the plain utility controller", got)
	}
	if _, err := (ControllerJSON{Shards: -2}).Build(); err == nil {
		t.Error("negative shards accepted")
	}
	if _, err := (ControllerJSON{Kind: "static", Shards: 2}).Build(); err == nil {
		t.Error("sharded static with invalid batchFraction accepted (inner config not validated)")
	}
}
