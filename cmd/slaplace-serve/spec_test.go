package main

import (
	"fmt"
	"reflect"
	"testing"

	"slaplace/internal/forecast"
	"slaplace/internal/shard"
)

// TestSessionSpec pins what the -controller and -forecast flags build,
// for every controller name the daemon accepts and both session shapes
// a plan request's shards hint selects.
func TestSessionSpec(t *testing.T) {
	names := map[string]string{
		"utility":   "utility-placement",
		"fcfs":      "fcfs",
		"edf":       "edf",
		"fairshare": "fairshare",
		"static60":  "static[batch=60%]",
	}
	holt := &forecast.Config{Predictor: "holt", CorrectionAlpha: 0.25}
	for flagName, name := range names {
		for predictor, wantFC := range map[string]*forecast.Config{"": nil, "holt": holt} {
			spec := sessionSpec(flagName, predictor)
			newCtrl, err := spec.Factory()
			if err != nil {
				t.Fatalf("%s/%q: %v", flagName, predictor, err)
			}
			for _, shards := range []int{1, 3} {
				want := name
				if shards > 1 {
					want = fmt.Sprintf("sharded%d(%s)", shards, name)
				}
				if got := shard.Wrap(shards, newCtrl).Name(); got != want {
					t.Errorf("%s/%d: controller %q, want %q", flagName, shards, got, want)
				}
			}
			fc, err := spec.ForecastConfig()
			if err != nil || !reflect.DeepEqual(fc, wantFC) {
				t.Errorf("%s/%q: forecast %+v (%v), want %+v", flagName, predictor, fc, err, wantFC)
			}
		}
	}
	for _, bad := range []string{"alien", "static"} {
		if _, err := sessionSpec(bad, "").Factory(); err == nil {
			t.Errorf("controller %q accepted", bad)
		}
	}
	if _, err := sessionSpec("utility", "arima").ForecastConfig(); err == nil {
		t.Error("unknown predictor accepted")
	}
}
