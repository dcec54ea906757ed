package main

import (
	"fmt"
	"runtime/debug"
	"time"
)

// traceRequests caps the traced run; its time budget usually ends it
// first on the workloads whose requests restore a session.
const traceRequests = 300

// traceFleet is the size of the tenant fleet the traced run walks: the
// full fleet's mix, small enough that every tenant is visited a few
// times within traceRequests.
const traceFleet = 100

// traceRun replays a serving workload's twins, from the same seed,
// against the in-process trace target, and returns the target with its
// spans. Every reply is audited.
func traceRun(name string, seed uint64, size sizing, budget time.Duration) (*traceTarget, error) {
	saturated := shape{nodes: size.nodes, jobs: size.jobs, period: steadyPeriod}
	tt := &traceTarget{}
	var steps []func() error // one per cluster, walked round-robin
	rec := newRecorder()
	twinStep := func(id string, sh shape, deltas bool) func() error {
		l := &loop{twin: newTwin(id, sh, seed), binary: true, deltas: deltas, auditAll: true}
		return func() error { return l.step(tt, rec) }
	}
	warmup := size.warmup
	switch name {
	case wlChurn:
		tt.jsonToo = true
		steps = append(steps, twinStep("c0", shape{nodes: size.nodes, jobs: size.jobs, period: churnPeriod, churn: true}, false))
	case wlSteady:
		tt.durable = true
		steps = append(steps, twinStep("c0", saturated, true))
	case wlFailover:
		tt.durable, tt.adopt = true, true
		for k := 0; k < min(2, size.clusters); k++ {
			steps = append(steps, twinStep(fmt.Sprintf("fo-%d", k), saturated, true))
		}
		warmup = 2
	case wlTenants:
		tt.coordinator = true
		fleet := size
		fleet.tiers = scaleTiers(size.tiers, traceFleet)
		w, err := newTenantsWorkload(seed, fleet, nil)
		if err != nil {
			return nil, err
		}
		for _, walk := range w.walks {
			for _, tn := range walk {
				steps = append(steps, func() error { return w.visit(tn, tt, rec) })
			}
		}
		warmup = 1
	default:
		return nil, fmt.Errorf("workload %q has no traced run", name)
	}
	if err := tt.start(); err != nil {
		return nil, err
	}
	// The collector runs between requests only (see traceTarget.post): a
	// collection started by one path's garbage would otherwise be billed
	// to whichever path runs next, the same one every request.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < warmup*len(steps); i++ {
		if err := steps[i%len(steps)](); err != nil {
			tt.close()
			return nil, fmt.Errorf("traced warm-up: %w", err)
		}
	}
	tt.reset()
	start := time.Now()
	for i := 0; i < traceRequests && time.Since(start) < budget; i++ {
		if err := steps[i%len(steps)](); err != nil {
			tt.close()
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return tt, nil
}

// scaleTiers shrinks a fleet to about total tenants, keeping its mix and
// at least one tenant per tier.
func scaleTiers(tiers []tenantTier, total int) []tenantTier {
	sum := 0
	for _, tr := range tiers {
		sum += tr.count
	}
	out := append([]tenantTier(nil), tiers...)
	for i := range out {
		out[i].count = max(1, out[i].count*total/sum)
	}
	return out
}

// reset drops what the warm-up recorded.
func (t *traceTarget) reset() {
	t.tr = newTracer()
	t.requests, t.mismatches, t.ckptBytes = 0, 0, nil
}

// perLayer are the metrics of single layers, reported by the traced run
// (-trace 1) and never gated. A metric whose layer does no work on a
// workload reads 0 there. BENCHMARK.json repeats this list; a test
// keeps the two equal.
var perLayer = []metricDef{
	{Name: "api.decode_us", Unit: "us", Better: "lower"},
	{Name: "api.encode_us", Unit: "us", Better: "lower"},
	{Name: "api.json_decode_us", Unit: "us", Better: "lower"},
	{Name: "api.json_encode_us", Unit: "us", Better: "lower"},
	{Name: "api.convert_in_us", Unit: "us", Better: "lower"},
	{Name: "api.convert_out_us", Unit: "us", Better: "lower"},
	{Name: "api.diff_us", Unit: "us", Better: "lower"},
	{Name: "api.request_bytes", Unit: "bytes", Better: "lower"},
	{Name: "api.response_bytes", Unit: "bytes", Better: "lower"},
	{Name: "api.ckpt_bytes", Unit: "bytes", Better: "lower"},
	{Name: "api.ckpt_encode_us", Unit: "us", Better: "lower"},
	{Name: "api.ckpt_decode_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_full_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_incremental_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_replayed_us", Unit: "us", Better: "lower"},
	{Name: "core.tier_full_share", Unit: "ratio", Better: "lower"},
	{Name: "core.tier_incremental_share", Unit: "ratio", Better: "higher"},
	{Name: "core.tier_replayed_share", Unit: "ratio", Better: "higher"},
	{Name: "core.actions_per_plan", Unit: "count", Better: "lower"},
	{Name: "forecast.predict_us", Unit: "us", Better: "lower"},
	{Name: "control.propose_us", Unit: "us", Better: "lower"},
	{Name: "control.self_us", Unit: "us", Better: "lower"},
	{Name: "control.export_us", Unit: "us", Better: "lower"},
	{Name: "control.restore_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_us", Unit: "us", Better: "lower"},
	{Name: "serve.checkpoint_us", Unit: "us", Better: "lower"},
	{Name: "serve.fsync_probe_us", Unit: "us", Better: "lower"},
	{Name: "serve.restart_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.restore_first_plan_us", Unit: "us", Better: "lower"},
	{Name: "serve.plan_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.plan_ms_max", Unit: "ms", Better: "lower"},
	{Name: "serve.rss_mb_per_session", Unit: "MB", Better: "lower"},
	{Name: "replica.forward_us", Unit: "us", Better: "lower"},
	{Name: "sim.run_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.plan_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.cycles_per_run", Unit: "count", Better: "higher"},
	{Name: "gen.think_us", Unit: "us", Better: "lower"},
	{Name: "gen.verify_us", Unit: "us", Better: "lower"},
	{Name: "bench.build_s", Unit: "s", Better: "lower"},
	{Name: "trace.stage_sum_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.shadow_match", Unit: "count", Better: "higher"},
	{Name: "trace.requests", Unit: "count", Better: "higher"},
	// Outcomes a user would see but that cannot be end-to-end metrics
	// under the benchmark's contract (see README.md, "Demoted").
	{Name: "wire_bytes_per_plan", Unit: "bytes", Better: "lower"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
	{Name: "sim_cycles_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sla_violation_cycles", Unit: "count", Better: "lower"},
	{Name: "job_goal_violations", Unit: "count", Better: "lower"},
}

// stageSpans are the spans whose median is reported as <name>_us.
var stageSpans = []string{
	spanDecode, spanEncode, spanJSONDecode, spanJSONEncode, spanConvertIn, spanConvertOut, spanDiff,
	spanCkptEncode, spanCkptDecode, spanPlan, spanForecast, spanPropose, spanExport, spanRestore, spanFsync,
}

// observedLayers computes the per-layer metrics that come from watching
// the daemon from outside: tails, tier mix, wire sizes, generator cost.
func observedLayers(out *outcome, sessions int, buildTook time.Duration) map[string]float64 {
	rec := out.rec
	vals := map[string]float64{
		"bench.build_s": buildTook.Seconds(),
		"gen.think_us":  medianIn(rec.think, time.Microsecond),
		"gen.verify_us": medianIn(rec.verify, time.Microsecond),
	}
	if rec.attempted > 0 {
		vals["failed_share"] = float64(rec.failed) / float64(rec.attempted)
	}
	lat := sortedIn(rec.latency, time.Millisecond)
	if sim := out.sim; sim != nil {
		total := float64(sim.tiers.Full + sim.tiers.Incremental + sim.tiers.Replayed)
		vals["core.tier_full_share"] = float64(sim.tiers.Full) / total
		vals["core.tier_incremental_share"] = float64(sim.tiers.Incremental) / total
		vals["core.tier_replayed_share"] = float64(sim.tiers.Replayed) / total
		vals["core.plan_us"] = 1000 * percentile(lat, 50)
		vals["sim.run_ms"] = medianIn(sim.setTimes, time.Millisecond)
		vals["sim.cycles_per_run"] = float64(sim.cyclesPerSet)
		var planning, running time.Duration
		for _, d := range rec.latency {
			planning += d
		}
		for _, d := range sim.setTimes {
			running += d
		}
		vals["sim.plan_share"] = float64(planning) / float64(running)
		vals["sim_cycles_per_s"] = float64(len(lat)) / rec.busy.Seconds()
		vals["sla_violation_cycles"] = float64(sim.slaViolations)
		vals["job_goal_violations"] = float64(sim.goalViolations)
		return vals
	}
	n := float64(len(lat))
	if n == 0 {
		return vals
	}
	vals["serve.plan_ms_p99"] = percentile(lat, 99)
	vals["serve.plan_ms_max"] = lat[len(lat)-1]
	vals["core.tier_full_share"] = float64(rec.modes["full"]) / n
	vals["core.tier_incremental_share"] = float64(rec.modes["incremental"]) / n
	vals["core.tier_replayed_share"] = float64(rec.modes["replayed"]) / n
	vals["core.actions_per_plan"] = float64(rec.actions) / n
	vals["api.request_bytes"] = float64(rec.reqBytes) / n
	vals["api.response_bytes"] = float64(rec.respBytes) / n
	wire := 0
	for _, b := range rec.wire {
		wire += b
	}
	vals["wire_bytes_per_plan"] = float64(wire) / float64(len(rec.wire))
	if sessions > 0 {
		vals["serve.rss_mb_per_session"] = out.rssMB / float64(sessions)
	}
	if len(out.eagerFirst) > 0 {
		vals["serve.restart_ms"] = medianIn(out.eagerRestarts, time.Millisecond)
		vals["serve.restore_first_plan_us"] = medianIn(out.eagerFirst, time.Microsecond)
	}
	return vals
}

// tracedLayers adds the per-layer metrics read from the traced run's
// spans. p50ms is the daemon run's client-observed median.
func tracedLayers(vals map[string]float64, tt *traceTarget, p50ms float64) {
	d := tt.tr.durations(false)
	for _, name := range stageSpans {
		vals[name+"_us"] = medianUs(d, name)
	}
	for tier, ds := range tt.tr.byTier() {
		vals["core.plan_"+tier+"_us"] = medianIn(ds, time.Microsecond)
	}
	// The handler as the workload's daemon runs it, and its stages.
	handler, stages := spanHandler, planStages
	if tt.durable {
		handler = spanDurable
		stages = append(append([]string(nil), planStages...), durableStages...)
		vals["serve.checkpoint_us"] = pairedMedianUs(d[spanDurable], d[spanHandler])
	}
	if tt.adopt {
		stages = append(stages, restoreStages...)
	}
	sum := 0.0
	for _, name := range stages {
		sum += medianUs(d, name)
	}
	h := medianUs(d, handler)
	vals["serve.handler_us"] = h
	vals["serve.self_us"] = h - sum
	vals["serve.http_us"] = 1000*p50ms - h
	vals["control.self_us"] = medianUs(d, spanPropose) - medianUs(d, spanConvertIn) -
		medianUs(d, spanForecast) - medianUs(d, spanPlan) - medianUs(d, spanConvertOut)
	if h > 0 {
		vals["trace.stage_sum_ratio"] = sum / h
	}
	if tt.forward != nil {
		vals["replica.forward_us"] = pairedMedianUs(d[spanForward], d[spanHandler])
	}
	if len(tt.ckptBytes) > 0 {
		total := 0
		for _, b := range tt.ckptBytes {
			total += b
		}
		vals["api.ckpt_bytes"] = float64(total) / float64(len(tt.ckptBytes))
	}
	vals["trace.requests"] = float64(tt.requests)
	if tt.requests > 0 && tt.mismatches == 0 {
		vals["trace.shadow_match"] = 1
	}
}
