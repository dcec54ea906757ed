// Serving-mode benchmarks: the steady-state cost of POST /v1/plan at
// the HTTP-handler level, with and without session reuse. The CI
// benchmark gate (cmd/benchgate) tracks these medians alongside the
// planner's own (BenchmarkPlacementScale).
package slaplace_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slaplace/api"
	"slaplace/internal/queueing"
	"slaplace/internal/replica"
	"slaplace/internal/serve"
)

// servePlanBody encodes one full-snapshot plan request.
func servePlanBody(b *testing.B, snap *api.Snapshot, reply string) []byte {
	b.Helper()
	var buf bytes.Buffer
	err := api.EncodePlanRequest(&buf, &api.PlanRequest{
		ClusterID: "bench", Snapshot: snap, Reply: reply,
	})
	if err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// doPlan issues one handler-level plan request.
func doPlan(b *testing.B, srv *serve.Server, body []byte) *httptest.ResponseRecorder {
	b.Helper()
	req := httptest.NewRequest("POST", "/v1/plan", bytes.NewReader(body))
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != 200 {
		b.Fatalf("POST /v1/plan: %d: %s", w.Code, w.Body.String())
	}
	return w
}

// steadyWireSnapshot converts the steady synthetic snapshot (see
// bench_test.go) to its wire form at the given arrival rate.
func steadyWireSnapshot(b *testing.B, nodes, jobs int, lambda float64) *api.Snapshot {
	b.Helper()
	model, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		b.Fatal(err)
	}
	st := steadySyntheticState(nodes, jobs, model)
	st.Apps[0].Lambda = lambda
	snap, err := api.FromCoreState(st)
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// BenchmarkServePlan measures one planning request through the HTTP
// handler at the 500-node / 5000-job steady shape:
//
//	cold          a fresh session every request (new server): full
//	              snapshot decode + plan + full reply.
//	steadyFull    one long-lived session, drifting demand, full
//	              snapshot in and full plan out — session reuse pays
//	              for planning but the wire still ships everything.
//	steadyDelta   the protocol's fast path under demand drift: a
//	              SnapshotDelta patching one app and a delta reply —
//	              the carry-over tier plus incremental wire traffic.
//	steadyReplay  a re-plan with no drift at all (an empty delta):
//	              the session's replay tier answers from cache —
//	              planning cost that only a surviving session can
//	              avoid (retries, sub-cycle re-queries, multiple
//	              consumers of the same cycle).
func BenchmarkServePlan(b *testing.B) {
	const nodes, jobs = 500, 5000

	b.Run(fmt.Sprintf("cold/nodes=%d/jobs=%d", nodes, jobs), func(b *testing.B) {
		b.ReportAllocs()
		body := servePlanBody(b, steadyWireSnapshot(b, nodes, jobs, 65), "")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv := serve.New(serve.Options{})
			doPlan(b, srv, body)
		}
	})

	b.Run(fmt.Sprintf("coldBinary/nodes=%d/jobs=%d", nodes, jobs), func(b *testing.B) {
		b.ReportAllocs()
		// The same cold request over the compact binary codec, both
		// directions — the wire-overhead share of the cold path is what
		// the codec can remove. The benchmark gate holds the cold/
		// coldBinary ratio.
		var buf bytes.Buffer
		err := api.EncodePlanRequestBinary(&buf, &api.PlanRequest{
			ClusterID: "bench", Snapshot: steadyWireSnapshot(b, nodes, jobs, 65),
		})
		if err != nil {
			b.Fatal(err)
		}
		body := buf.Bytes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv := serve.New(serve.Options{})
			req := httptest.NewRequest("POST", "/v1/plan", bytes.NewReader(body))
			req.Header.Set("Content-Type", api.ContentTypeBinary)
			req.Header.Set("Accept", api.ContentTypeBinary)
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, req)
			if w.Code != 200 {
				b.Fatalf("POST /v1/plan: %d: %s", w.Code, w.Body.String())
			}
		}
	})

	b.Run(fmt.Sprintf("steadyFull/nodes=%d/jobs=%d", nodes, jobs), func(b *testing.B) {
		b.ReportAllocs()
		// Pre-encode drifting-demand bodies; a fresh demand level every
		// request keeps the session on the carry-over tier (genuine
		// re-plans, never exact-snapshot replays).
		const variants = 50
		bodies := make([][]byte, variants)
		for i := range bodies {
			bodies[i] = servePlanBody(b, steadyWireSnapshot(b, nodes, jobs, 65+0.1*float64(i+1)), "")
		}
		srv := serve.New(serve.Options{})
		doPlan(b, srv, servePlanBody(b, steadyWireSnapshot(b, nodes, jobs, 65), ""))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			doPlan(b, srv, bodies[i%variants])
		}
	})

	b.Run(fmt.Sprintf("steadyDelta/nodes=%d/jobs=%d", nodes, jobs), func(b *testing.B) {
		b.ReportAllocs()
		srv := serve.New(serve.Options{})
		warm := steadyWireSnapshot(b, nodes, jobs, 65)
		doPlan(b, srv, servePlanBody(b, warm, ""))
		cycle := 1
		app := warm.Apps[0]
		var buf bytes.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			app.Lambda = 65 + 0.1*float64(i%50+1)
			buf.Reset()
			err := api.EncodePlanRequest(&buf, &api.PlanRequest{
				ClusterID: "bench",
				Delta: &api.SnapshotDelta{
					BaseCycle:  cycle,
					Now:        warm.Now,
					UpsertApps: []api.App{app},
				},
				Reply: api.ReplyDelta,
			})
			if err != nil {
				b.Fatal(err)
			}
			doPlan(b, srv, buf.Bytes())
			cycle++
		}
	})

	b.Run(fmt.Sprintf("steadyReplay/nodes=%d/jobs=%d", nodes, jobs), func(b *testing.B) {
		b.ReportAllocs()
		srv := serve.New(serve.Options{})
		warm := steadyWireSnapshot(b, nodes, jobs, 65)
		doPlan(b, srv, servePlanBody(b, warm, ""))
		cycle := 1
		var buf bytes.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			err := api.EncodePlanRequest(&buf, &api.PlanRequest{
				ClusterID: "bench",
				Delta:     &api.SnapshotDelta{BaseCycle: cycle, Now: warm.Now},
				Reply:     api.ReplyDelta,
			})
			if err != nil {
				b.Fatal(err)
			}
			doPlan(b, srv, buf.Bytes())
			cycle++
		}
	})
}

// BenchmarkServeCheckpoint measures the durability tax at the
// 500-node / 5000-job steady shape:
//
//	export   GET /v1/sessions/{id}/checkpoint (binary): serialize the
//	         session's minimal restart state.
//	restore  PUT the checkpoint into a fresh daemon: decode plus the
//	         warm re-plan that rebuilds the incremental tiers.
//	write    the per-cycle cost a durable daemon adds to /v1/plan:
//	         export plus the atomic state-file write.
func BenchmarkServeCheckpoint(b *testing.B) {
	const nodes, jobs = 500, 5000
	warmServer := func(b *testing.B, dir string) *serve.Server {
		b.Helper()
		srv := serve.New(serve.Options{StateDir: dir})
		doPlan(b, srv, servePlanBody(b, steadyWireSnapshot(b, nodes, jobs, 65), ""))
		return srv
	}
	export := func(b *testing.B, srv *serve.Server) []byte {
		b.Helper()
		req := httptest.NewRequest("GET", "/v1/sessions/bench/checkpoint", nil)
		req.Header.Set("Accept", api.ContentTypeBinary)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("checkpoint export: %d: %s", w.Code, w.Body.String())
		}
		return w.Body.Bytes()
	}

	b.Run(fmt.Sprintf("export/nodes=%d/jobs=%d", nodes, jobs), func(b *testing.B) {
		b.ReportAllocs()
		srv := warmServer(b, "")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			export(b, srv)
		}
	})

	b.Run(fmt.Sprintf("restore/nodes=%d/jobs=%d", nodes, jobs), func(b *testing.B) {
		b.ReportAllocs()
		ck := export(b, warmServer(b, ""))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv := serve.New(serve.Options{})
			req := httptest.NewRequest("PUT", "/v1/sessions/bench/checkpoint", bytes.NewReader(ck))
			req.Header.Set("Content-Type", api.ContentTypeBinary)
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, req)
			if w.Code != 204 {
				b.Fatalf("checkpoint restore: %d: %s", w.Code, w.Body.String())
			}
		}
	})

	b.Run(fmt.Sprintf("write/nodes=%d/jobs=%d", nodes, jobs), func(b *testing.B) {
		b.ReportAllocs()
		// A durable server re-planning with no drift: the replay tier
		// answers planning, so the measured cost is dominated by the
		// checkpoint export + atomic file write each cycle adds.
		srv := warmServer(b, b.TempDir())
		warm := steadyWireSnapshot(b, nodes, jobs, 65)
		cycle := 1
		var buf bytes.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			err := api.EncodePlanRequest(&buf, &api.PlanRequest{
				ClusterID: "bench",
				Delta:     &api.SnapshotDelta{BaseCycle: cycle, Now: warm.Now},
				Reply:     api.ReplyDelta,
			})
			if err != nil {
				b.Fatal(err)
			}
			doPlan(b, srv, buf.Bytes())
			cycle++
		}
	})
}

// BenchmarkManyTenantServe is the consolidation benchmark: ONE daemon
// hosting 1000 cluster sessions — the paper's many-workload story at
// control-plane scale. The tenant mix is skewed like real fleets
// (850 small 10-node clusters, 140 medium 50-node, 10 large 200-node);
// all sessions are created and warmed first (that cost is reported as
// warm-ns per session), then drifting-demand plan requests are issued
// across all tenants from parallel clients; one benchmark op is a
// 100-request sweep over one proportional block of the mix. Beyond the
// per-sweep ns/op, the benchmark reports the p50 and p99 per-request
// latency — the numbers a multi-tenant operator actually provisions
// against.
//
// The mix runs twice: "direct" against the serve handler itself, and
// "coordinator" with every request pushed through the
// replica.Coordinator front end (body buffering, cluster sniff, ring
// routing, retrying forward) over an in-process transport. The bench
// gate holds the direct/coordinator ratio, so the pair prices exactly
// the coordinator's own steady-state overhead with no kernel TCP
// noise in either side.
func BenchmarkManyTenantServe(b *testing.B) {
	type tier struct {
		count, nodes, jobs int
	}
	tiers := []tier{{850, 10, 30}, {140, 50, 300}, {10, 200, 2000}}
	total := 0
	for _, tr := range tiers {
		total += tr.count
	}

	const variants = 4 // pre-encoded drift levels per tenant
	type tenant struct {
		id     string
		warm   []byte
		bodies [][]byte
		visits atomic.Int64
	}
	tenants := make([]*tenant, 0, total)
	for ti, tr := range tiers {
		// One snapshot per tier, re-labelled per tenant: the controller
		// state is per-session either way, and encoding 1000×5 distinct
		// 2000-job snapshots would dominate setup time.
		warmSnap := steadyWireSnapshot(b, tr.nodes, tr.jobs, 65)
		base := make([]*api.Snapshot, variants)
		for v := range base {
			base[v] = steadyWireSnapshot(b, tr.nodes, tr.jobs, 65+0.1*float64(v+1))
		}
		for i := 0; i < tr.count; i++ {
			tn := &tenant{id: fmt.Sprintf("t%d-%04d", ti, i)}
			encode := func(snap *api.Snapshot) []byte {
				var buf bytes.Buffer
				if err := api.EncodePlanRequestBinary(&buf, &api.PlanRequest{
					ClusterID: tn.id, Snapshot: snap,
				}); err != nil {
					b.Fatal(err)
				}
				return buf.Bytes()
			}
			tn.warm = encode(warmSnap)
			for v := 0; v < variants; v++ {
				tn.bodies = append(tn.bodies, encode(base[v]))
			}
			tenants = append(tenants, tn)
		}
	}
	// Interleave the tiers proportionally (largest-deficit order): the
	// measured loop walks tenants round-robin, and with small b.N only
	// a prefix is visited — proportional interleaving puts the fleet's
	// exact size mix in EVERY prefix (one large per 100 tenants, one
	// medium per ~7), so ns/op does not depend on how many iterations
	// the ramp-up settles on.
	starts := make([]int, len(tiers))
	for ti := 1; ti < len(tiers); ti++ {
		starts[ti] = starts[ti-1] + tiers[ti-1].count
	}
	placed := make([]int, len(tiers))
	ordered := make([]*tenant, 0, total)
	for p := 0; p < total; p++ {
		bestT, bestDef := -1, math.Inf(-1)
		for ti, tr := range tiers {
			if placed[ti] >= tr.count {
				continue
			}
			def := float64(tr.count)*float64(p+1)/float64(total) - float64(placed[ti])
			if def > bestDef {
				bestT, bestDef = ti, def
			}
		}
		ordered = append(ordered, tenants[starts[bestT]+placed[bestT]])
		placed[bestT]++
	}
	tenants = ordered

	run := func(b *testing.B, h http.Handler) {
		do := func(body []byte) int {
			req := httptest.NewRequest("POST", "/v1/plan", bytes.NewReader(body))
			req.Header.Set("Content-Type", api.ContentTypeBinary)
			req.Header.Set("Accept", api.ContentTypeBinary)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			return w.Code
		}
		warmStart := time.Now()
		for _, tn := range tenants {
			if code := do(tn.warm); code != 200 {
				b.Fatalf("warm-up for %s: %d", tn.id, code)
			}
		}
		warm := time.Since(warmStart)

		// One op is a SWEEP of 100 requests — exactly one proportional
		// block of the interleave (85 small, 14 medium, 1 large), so every
		// iteration prices the identical tenant mix and per-request noise
		// averages out inside the op. Each request cycles its tenant's
		// demand level, so every plan is a carry-over re-plan, never a
		// cached replay.
		const sweep = 100
		var mu sync.Mutex
		var latencies []time.Duration
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			local := make([]time.Duration, 0, 256)
			for pb.Next() {
				for s := 0; s < sweep; s++ {
					n := next.Add(1)
					tn := tenants[int(n)%len(tenants)]
					body := tn.bodies[int(tn.visits.Add(1))%variants]
					start := time.Now()
					if code := do(body); code != 200 {
						b.Errorf("tenant %s: %d", tn.id, code)
						return
					}
					local = append(local, time.Since(start))
				}
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		})
		b.StopTimer()

		if len(latencies) > 0 {
			sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
			b.ReportMetric(float64(latencies[len(latencies)/2]), "p50-ns")
			b.ReportMetric(float64(latencies[len(latencies)*99/100]), "p99-ns")
		}
		b.ReportMetric(float64(warm.Nanoseconds())/float64(total), "warm-ns")
		b.ReportMetric(float64(total), "sessions")
	}

	b.Run("direct", func(b *testing.B) {
		run(b, serve.New(serve.Options{}).Handler())
	})

	b.Run("coordinator", func(b *testing.B) {
		backend := serve.New(serve.Options{})
		rt := &fleetTransport{handlers: map[string]http.Handler{
			"http://replica-0": backend.Handler(),
		}}
		co, err := replica.NewCoordinator(replica.CoordinatorOptions{
			Replicas: []string{"http://replica-0"},
			HTTP:     &http.Client{Transport: rt},
		})
		if err != nil {
			b.Fatal(err)
		}
		run(b, co.Handler())
	})
}

// fleetTransport serves client requests in-process straight from each
// replica's handler — the coordinator benchmarks' network. A killed
// address fails like a dead daemon: connection refused.
type fleetTransport struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
}

func (t *fleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	h := t.handlers[req.URL.Scheme+"://"+req.URL.Host]
	t.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("dial tcp %s: connect: connection refused", req.URL.Host)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	resp := w.Result()
	resp.Request = req
	return resp, nil
}

func (t *fleetTransport) kill(addr string) {
	t.mu.Lock()
	delete(t.handlers, addr)
	t.mu.Unlock()
}

// BenchmarkReplicaFailover prices the recovery guarantee end to end at
// the medium-tenant shape: a two-replica fleet shares a state dir, the
// cluster's rendezvous home answers one cycle (claim and checkpoint on
// disk), then dies. The measured section is the next plan request
// driven through the coordinator's retrying client: connection
// refused, re-home, 421 while the survivor still sees a fresh foreign
// claim, backoff until the claim goes stale, steal, restore from the
// checkpoint, re-plan, 200. ns/op is the client-observed failover gap
// — the bench gate tracks its median, and the tail percentiles ride
// along ungated. The claim TTL and backoff are scaled down together
// (production defaults would measure configuration, not mechanism).
func BenchmarkReplicaFailover(b *testing.B) {
	const nodes, jobs = 50, 300
	const cluster = "failover"
	urls := []string{"http://replica-a", "http://replica-b"}
	home := replica.Home(cluster, urls)

	encode := func(lambda float64) []byte {
		var buf bytes.Buffer
		if err := api.EncodePlanRequestBinary(&buf, &api.PlanRequest{
			ClusterID: cluster, Snapshot: steadyWireSnapshot(b, nodes, jobs, lambda),
		}); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	warmBody, failBody := encode(65), encode(65.1)
	hdr := http.Header{
		"Content-Type": {api.ContentTypeBinary},
		"Accept":       {api.ContentTypeBinary},
	}

	b.Run(fmt.Sprintf("nodes=%d/jobs=%d", nodes, jobs), func(b *testing.B) {
		var times []time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			handlers := make(map[string]http.Handler, len(urls))
			for _, u := range urls {
				handlers[u] = serve.New(serve.Options{
					StateDir:        dir,
					ReplicaID:       u,
					StaleClaimAfter: time.Millisecond,
				}).Handler()
			}
			rt := &fleetTransport{handlers: handlers}
			co, err := replica.NewCoordinator(replica.CoordinatorOptions{
				Replicas: urls,
				HTTP:     &http.Client{Transport: rt},
			})
			if err != nil {
				b.Fatal(err)
			}
			cl := co.Client()
			cl.MaxAttempts = 12
			cl.BaseBackoff = 250 * time.Microsecond
			cl.MaxBackoff = 4 * time.Millisecond
			if res, err := cl.Do(context.Background(), cluster, "POST", "/v1/plan", warmBody, hdr); err != nil || res.Status != 200 {
				b.Fatalf("warm-up: %v (res %+v)", err, res)
			}
			rt.kill(home)
			b.StartTimer()
			start := time.Now()
			res, err := cl.Do(context.Background(), cluster, "POST", "/v1/plan", failBody, hdr)
			dt := time.Since(start)
			b.StopTimer()
			if err != nil || res.Status != 200 {
				b.Fatalf("failover request: %v (res %+v)", err, res)
			}
			times = append(times, dt)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		b.ReportMetric(float64(times[len(times)/2]), "p50-ns")
		b.ReportMetric(float64(times[len(times)*99/100]), "p99-ns")
	})
}

// TestServePlanSessionReuse pins the serving mode's headline
// guarantee: the controller's incremental tiers survive across HTTP
// requests. A steady-state request answered from the session's replay
// tier must be at least 3x faster end to end (decode + plan + encode)
// than a cold-session request for the same cluster shape; the
// carry-over tier's drift re-plan ratio is logged alongside.
func TestServePlanSessionReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("timing test; race instrumentation skews the ratio")
	}
	const nodes, jobs = 500, 5000
	const rounds = 5
	model, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		t.Fatal(err)
	}
	st := steadySyntheticState(nodes, jobs, model)
	snap, err := api.FromCoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := api.EncodePlanRequest(&full, &api.PlanRequest{ClusterID: "c", Snapshot: snap}); err != nil {
		t.Fatal(err)
	}

	do := func(srv *serve.Server, body []byte) int {
		req := httptest.NewRequest("POST", "/v1/plan", bytes.NewReader(body))
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		return w.Code
	}

	// Cold: a brand-new session every round.
	coldBest := time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		srv := serve.New(serve.Options{})
		start := time.Now()
		if code := do(srv, full.Bytes()); code != 200 {
			t.Fatalf("cold request: %d", code)
		}
		if d := time.Since(start); d < coldBest {
			coldBest = d
		}
	}

	// Warm session: drifting-demand deltas (carry-over tier), then
	// no-drift re-plans (replay tier).
	srv := serve.New(serve.Options{})
	if code := do(srv, full.Bytes()); code != 200 {
		t.Fatal("warm-up request failed")
	}
	cycle := 1
	app := snap.Apps[0]
	steadyDelta := func(i int, drift bool) time.Duration {
		d := &api.SnapshotDelta{BaseCycle: cycle, Now: snap.Now}
		if drift {
			app.Lambda = 65 + 0.1*float64(i+1)
			d.UpsertApps = []api.App{app}
		}
		var buf bytes.Buffer
		err := api.EncodePlanRequest(&buf, &api.PlanRequest{
			ClusterID: "c", Delta: d, Reply: api.ReplyDelta,
		})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if code := do(srv, buf.Bytes()); code != 200 {
			t.Fatalf("steady request %d failed", i)
		}
		cycle++
		return time.Since(start)
	}
	driftBest := time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		if d := steadyDelta(i, true); d < driftBest {
			driftBest = d
		}
	}
	replayBest := time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		if d := steadyDelta(i, false); d < replayBest {
			replayBest = d
		}
	}

	ratio := float64(coldBest) / float64(replayBest)
	t.Logf("cold-session %v vs steady replay %v (%.1fx) vs steady drift %v (%.1fx)",
		coldBest, replayBest, ratio, driftBest, float64(coldBest)/float64(driftBest))
	if ratio < 3 {
		t.Errorf("steady serve request only %.2fx faster than cold-session (want >= 3x)", ratio)
	}

	// Reuse must have stayed on the incremental tiers throughout: ask
	// the running session via /v1/stats. (The warm-up plan itself takes
	// the carry-over tier — its steadiness proofs are snapshot-only.)
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("stats: %d", w.Code)
	}
	var stats api.StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Sessions) != 1 || stats.Sessions[0].Stats == nil {
		t.Fatalf("stats: %+v", stats)
	}
	got := stats.Sessions[0].Stats
	if got.Full != 0 || got.Incremental != rounds+1 || got.Replayed != rounds {
		t.Errorf("session left the incremental tiers: %+v", got)
	}
}
