package experiments

import (
	"strings"
	"testing"
)

// fuzzScenarioSeed is a complete, valid scenario document with every
// block the loader knows — including the chaos block — so the fuzzer
// starts from deep inside the accepted grammar.
const fuzzScenarioSeed = `{
  "name": "fuzz-seed",
  "seed": 7,
  "horizon": 7200,
  "nodes": 4,
  "nodeCPUMHz": 18000,
  "nodeMemMB": 16000,
  "defaultCosts": true,
  "controller": {"kind": "utility", "forecast": {"predictor": "holt"}},
  "cyclePeriod": 300,
  "firstCycle": 60,
  "jobs": [{
    "name": "crunch",
    "workMHzs": 5400000,
    "maxSpeedMHz": 4500,
    "memMB": 5000,
    "goalStretch": 3,
    "phases": [{"start": 0, "meanInterarrival": 400}],
    "maxJobs": 10
  }],
  "apps": [{
    "id": "web",
    "rtGoal": 3,
    "demandMHzs": 1350,
    "coreSpeedMHz": 4500,
    "pattern": {"kind": "constant", "rate": 10},
    "instanceMemMB": 1000,
    "maxPerInstanceMHz": 18000,
    "minInstances": 1
  }],
  "faults": [{"node": "node-002", "failAt": 3000, "restoreAt": 5000}],
  "chaos": {
    "seed": 3,
    "crash": {"every": 4, "start": 2, "detectionLag": 2, "restoreAfter": 5},
    "flap": {"nodes": 1, "period": 2, "start": 3},
    "wave": {"departAt": 6, "count": 2, "returnAt": 10},
    "stale": {"duplicateEvery": 3, "regressEvery": 5}
  }
}`

// FuzzLoadScenario hammers the scenario loader with arbitrary
// documents: it must never panic, anything it accepts must be a
// runnable (Validate-clean) scenario with any chaos block Validate-
// clean too, and loading the same bytes twice must agree.
func FuzzLoadScenario(f *testing.F) {
	f.Add(fuzzScenarioSeed)
	f.Add(`{}`)
	f.Add(`{"name": "x", "bogusField": 1}`)
	f.Add(`{"name": "x", "chaos": {"stale": {}}}`)
	f.Add(`{"name": "x", "chaos": {"crash": {"every": 0, "start": 1}}}`)
	f.Add(strings.Replace(fuzzScenarioSeed, `"every": 4`, `"every": -4`, 1))
	f.Add(`not json at all`)
	f.Add(`{"nodes": 1e309}`)
	f.Add(taggedBlocksJSON)

	f.Fuzz(func(t *testing.T, doc string) {
		sc, err := LoadScenario(strings.NewReader(doc))
		sc2, err2 := LoadScenario(strings.NewReader(doc))
		if (err == nil) != (err2 == nil) {
			t.Fatalf("loader not deterministic: %v vs %v", err, err2)
		}
		if err != nil {
			return // invalid input may fail, never panic
		}
		if verr := sc.Validate(); verr != nil {
			t.Fatalf("loaded scenario fails validation: %v\n%s", verr, doc)
		}
		if sc.Chaos != nil {
			if verr := sc.Chaos.Validate(); verr != nil {
				t.Fatalf("loaded chaos config fails validation: %v\n%s", verr, doc)
			}
		}
		if sc.Name != sc2.Name || sc.Nodes != sc2.Nodes || (sc.Chaos == nil) != (sc2.Chaos == nil) {
			t.Fatalf("loader not deterministic for %q", doc)
		}
	})
}
