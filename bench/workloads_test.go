package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestShadowMatchesHandlerAndSession: the traced run's numbers may be
// read as the handler's only because all paths answer every request
// with identical bytes — full snapshots, deltas, JSON, binary, durable
// sessions and sessions adopted from a checkpoint.
func TestShadowMatchesHandlerAndSession(t *testing.T) {
	useTempScratch(t)
	for _, name := range []string{wlChurn, wlSteady, wlTenants, wlFailover} {
		tt, err := traceRun(name, 11, testSize, time.Minute)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tt.requests == 0 || tt.mismatches != 0 {
			t.Errorf("%s: %d of %d replies differ between shadow, session and handler", name, tt.mismatches, tt.requests)
		}
		vals := map[string]float64{}
		tracedLayers(vals, tt, 0)
		if vals["trace.shadow_match"] != 1 || vals["core.plan_us"] <= 0 || vals["serve.handler_us"] <= 0 {
			t.Errorf("%s: traced layers incomplete: %v", name, vals)
		}
		tt.close()
	}
}

// TestWorkloadsSmoke runs every workload end to end against the
// in-process server: set-up twice, two short windows, tear-down.
func TestWorkloadsSmoke(t *testing.T) {
	useTempScratch(t)
	b := &bench{seed: 2, launch: inprocLauncher, size: testSize, traced: true}
	for _, m := range b.measure(workloadNames, 2, 2, 150*time.Millisecond) {
		if m.err != nil {
			t.Errorf("%s: %v", m.Workload, m.err)
			continue
		}
		if m.Samples == 0 || m.Failed != 0 || m.Attempted < m.Samples {
			t.Errorf("%s: %d samples, %d attempted, %d failed", m.Workload, m.Samples, m.Attempted, m.Failed)
		}
		for _, d := range endToEnd {
			if d.Name == "daemon_rss_mb" && runtime.GOOS != "linux" {
				continue // read from /proc
			}
			if v := m.EndToEnd[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive number of %s", m.Workload, d.Name, v, d.Unit)
			}
		}
		layers := observedLayers(m.out, m.sessions, 0)
		for name := range layers {
			if !defined(perLayer, name) {
				t.Errorf("%s: %s is not in the per-layer catalogue", m.Workload, name)
			}
		}
		if m.Workload == wlFailover && layers["serve.restart_ms"] <= 0 {
			t.Errorf("failover: no eager restart measured: %v", layers)
		}
		if m.Workload == wlPaperSim && layers["sim.cycles_per_run"] <= 0 {
			t.Errorf("paper-sim: no cycles counted: %v", layers)
		}
	}
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkJSONMatchesCatalogue: BENCHMARK.json at the repository
// root is what the outside world reads; it must name exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
}
