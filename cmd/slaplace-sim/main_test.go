package main

import (
	"fmt"
	"reflect"
	"testing"

	"slaplace/internal/forecast"
)

// TestSessionSpec pins what the -controller, -shards, -static-frac and
// -forecast flags build: the controller's name and the exact forecast
// configuration, for every controller name the CLI accepts.
func TestSessionSpec(t *testing.T) {
	names := map[string]string{
		"utility":   "utility-placement",
		"fcfs":      "fcfs",
		"edf":       "edf",
		"fairshare": "fairshare",
		"static":    "static[batch=60%]",
	}
	holt := &forecast.Config{Predictor: "holt", CorrectionAlpha: 0.25}
	for flagName, name := range names {
		for _, shards := range []int{1, 3} {
			for predictor, wantFC := range map[string]*forecast.Config{"": nil, "holt": holt} {
				spec := sessionSpec(flagName, shards, 0.6, predictor, "quick")
				ctrl, err := spec.Build()
				if err != nil {
					t.Fatalf("%s/%d/%q: %v", flagName, shards, predictor, err)
				}
				want := name
				if shards > 1 {
					want = fmt.Sprintf("sharded%d(%s)", shards, name)
				}
				if ctrl.Name() != want {
					t.Errorf("%s/%d: controller %q, want %q", flagName, shards, ctrl.Name(), want)
				}
				fc, err := spec.ForecastConfig()
				if err != nil || !reflect.DeepEqual(fc, wantFC) {
					t.Errorf("%s/%q: forecast %+v (%v), want %+v", flagName, predictor, fc, err, wantFC)
				}
			}
		}
	}
	// A sharded "utility" rebuilds the churn-oblivious scenario's tuning.
	if !sessionSpec("utility", 3, 0.6, "", "churn-oblivious").ChurnOblivious {
		t.Error("churn-oblivious scenario's utility spec is churn-aware")
	}
	if _, err := sessionSpec("alien", 1, 0.6, "", "quick").Build(); err == nil {
		t.Error("unknown controller accepted")
	}
	if _, err := sessionSpec("utility", 1, 0.6, "arima", "quick").ForecastConfig(); err == nil {
		t.Error("unknown predictor accepted")
	}
}
