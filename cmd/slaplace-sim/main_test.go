package main

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
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

// TestHorizonFlag: -horizon overrides the scenario's horizon, and any
// value that is not finite and positive is rejected with exit status 2
// before a simulation starts (+Inf would otherwise never return). The
// quick scenario runs 24 cycles over its own horizon, 12 over 3600 s.
func TestHorizonFlag(t *testing.T) {
	for _, h := range []string{"Inf", "+Inf", "-Inf", "NaN", "-5"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-horizon", h}, &stdout, &stderr); code != 2 {
			t.Errorf("-horizon %s: exit %d, want 2", h, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "horizon") {
			t.Errorf("-horizon %s: stdout %q, stderr %q", h, stdout.String(), stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-horizon", "3600"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-horizon 3600: exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "scenario quick under utility-placement: 12 cycles") {
		t.Errorf("-horizon 3600 did not shorten the run: %s", stdout.String())
	}
}
