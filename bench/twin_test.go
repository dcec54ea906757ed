package main

import (
	"bytes"
	"testing"

	"slaplace/internal/serve"
)

// testSize is a miniature of fullSize: the same regimes, small enough
// for the race detector.
var testSize = sizing{
	nodes: 20, jobs: 100,
	tiers: []tenantTier{
		{count: 17, nodes: 4, jobs: 12},
		{count: 2, nodes: 10, jobs: 60, binary: true},
		{count: 1, nodes: 20, jobs: 100, binary: true},
	},
	clusters: 2,
	warmup:   5,
}

// useTempScratch points the state dirs at a directory the test owns.
func useTempScratch(t *testing.T) {
	t.Helper()
	old := scratch
	scratch = t.TempDir()
	t.Cleanup(func() { scratch = old })
}

// tapTarget records every request body on its way to the handler.
type tapTarget struct {
	handlerTarget
	bodies [][]byte
}

func (t *tapTarget) post(body []byte, binary bool) (int, []byte, error) {
	t.bodies = append(t.bodies, bytes.Clone(body))
	return t.handlerTarget.post(body, binary)
}

// requestStream drives a twin for n cycles against a fresh in-process
// server and returns everything it sent.
func requestStream(t *testing.T, sh shape, deltas bool, seed uint64, n int) [][]byte {
	t.Helper()
	tap := &tapTarget{handlerTarget: handlerTarget{serve.New(serve.Options{}).Handler()}}
	l := &loop{twin: newTwin("c0", sh, seed), binary: true, deltas: deltas, auditAll: true}
	for i := 0; i < n; i++ {
		if err := l.step(tap, nil); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	return tap.bodies
}

func testShapes() map[string]shape {
	return map[string]shape{
		wlChurn:  {nodes: testSize.nodes, jobs: testSize.jobs, period: churnPeriod, churn: true},
		wlSteady: {nodes: testSize.nodes, jobs: testSize.jobs, period: steadyPeriod},
	}
}

// TestTwinDeterminism: the daemon only ever sees generated requests, so
// the same seed must generate the same bytes, and another seed others.
func TestTwinDeterminism(t *testing.T) {
	for name, sh := range testShapes() {
		deltas := name == wlSteady
		a := requestStream(t, sh, deltas, 7, 200)
		b := requestStream(t, sh, deltas, 7, 200)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two runs of seed 7", name, i)
			}
		}
		c := requestStream(t, sh, deltas, 8, 3)
		if bytes.Equal(a[0], c[0]) {
			t.Errorf("%s: seeds 7 and 8 send the same first request", name)
		}
	}
}

// TestTwinStationarity: a benchmark window must measure a regime, not a
// transient — the job population is held exactly and the running set
// stays within 5% of its equilibrium for 500 cycles.
func TestTwinStationarity(t *testing.T) {
	for name, sh := range testShapes() {
		// Large enough that 5% of the running set is more than a job or two.
		sh.nodes, sh.jobs = 100, 1000
		srv := handlerTarget{serve.New(serve.Options{}).Handler()}
		l := &loop{twin: newTwin("c0", sh, 3), binary: true, deltas: name == wlSteady}
		for i := 0; i < fullSize.warmup; i++ {
			if err := l.step(srv, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Memory decides how many jobs run: two per saturated node; three
		// or four per churn node, depending on the web instances it hosts.
		var counts []int
		for i := 0; i < 500; i++ {
			if err := l.step(srv, nil); err != nil {
				t.Fatalf("%s cycle %d: %v", name, i, err)
			}
			if got := len(l.twin.snap.Jobs); got != sh.jobs {
				t.Fatalf("%s cycle %d: population %d, want %d", name, i, got, sh.jobs)
			}
			counts = append(counts, l.twin.running())
		}
		sum := 0
		for _, c := range counts {
			sum += c
		}
		mean := float64(sum) / float64(len(counts))
		if lo, hi := 2*sh.nodes, 2*sh.nodes; !sh.churn && (mean < float64(lo) || mean > float64(hi)) {
			t.Errorf("%s: %.1f jobs run on average, want %d", name, mean, lo)
		}
		if sh.churn && (mean < float64(3*sh.nodes) || mean > float64(4*sh.nodes)) {
			t.Errorf("%s: %.1f jobs run on average, want 3 to 4 per node", name, mean)
		}
		for i, c := range counts {
			if float64(c) < 0.95*mean || float64(c) > 1.05*mean {
				t.Errorf("%s cycle %d: %d jobs running, more than 5%% off the mean %.1f", name, i, c, mean)
				break
			}
		}
		if sh.churn && l.twin.finished == 0 {
			t.Errorf("%s: no job finished in 500 cycles", name)
		}
		if !sh.churn && l.twin.finished != 0 {
			t.Errorf("%s: %d jobs finished; none should", name, l.twin.finished)
		}
	}
}

// TestTierMix guards what each workload is for: churn exists to measure
// the full tier and steady the carry-over tier. Any non-200 — a 409 for
// a regressed clock or a stale base cycle included — fails the step.
func TestTierMix(t *testing.T) {
	for name, sh := range testShapes() {
		srv := handlerTarget{serve.New(serve.Options{}).Handler()}
		l := &loop{twin: newTwin("c0", sh, 5), binary: true, deltas: name == wlSteady}
		rec := newRecorder()
		rec.begin()
		for i := 0; i < 300; i++ {
			if err := l.step(srv, rec); err != nil {
				t.Fatalf("%s cycle %d: %v", name, i, err)
			}
		}
		n := float64(len(rec.latency))
		switch name {
		case wlChurn:
			if share := float64(rec.modes["full"]) / n; share < 0.90 {
				t.Errorf("churn: %.0f%% full-tier plans, want >= 90%% (%v)", 100*share, rec.modes)
			}
		case wlSteady:
			// The session's first plan is necessarily full.
			if share := float64(rec.modes["incremental"]) / n; share < 0.95 {
				t.Errorf("steady: %.0f%% incremental plans, want >= 95%% (%v)", 100*share, rec.modes)
			}
		}
	}
}
