package main

import (
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"slaplace/api"
	"slaplace/internal/forecast"
	"slaplace/internal/serve"
)

// The workload names are part of the benchmark's contract: results,
// BENCHMARK.json and later performance claims refer to them.
const (
	wlChurn    = "churn"
	wlSteady   = "steady"
	wlTenants  = "tenants"
	wlFailover = "failover"
	wlPaperSim = "paper-sim"
)

var workloadNames = []string{wlChurn, wlSteady, wlTenants, wlFailover, wlPaperSim}

// sizing is everything about a run that scales with the host: the
// benchmark uses fullSize, the unit tests a miniature of it.
type sizing struct {
	nodes, jobs int // the reference cluster shape
	tiers       []tenantTier
	clusters    int // failover clusters
	warmup      int // untimed cycles per cluster before the first window
}

// tenantTier is one size class of the consolidated fleet.
type tenantTier struct {
	count, nodes, jobs int
	binary             bool
}

var fullSize = sizing{
	nodes: 500, jobs: 5000,
	tiers: []tenantTier{
		{count: 850, nodes: 10, jobs: 30},
		{count: 140, nodes: 50, jobs: 300, binary: true},
		{count: 10, nodes: 200, jobs: 2000, binary: true},
	},
	clusters: 8,
	// Long enough for churn's queue to reach its equilibrium age mix: the
	// web tier's instance count, and with it the running set, drifts for
	// the first few dozen cycles.
	warmup: 50,
}

// Control periods: the paper's 600 s where jobs turn over, a
// monitoring-rate 10 s where only progress and demand move.
const (
	churnPeriod  = 600
	steadyPeriod = 10
)

// sutFlags are the daemon settings a workload runs with; everything
// else stays at the daemon's defaults.
type sutFlags struct {
	stateDir string
	forecast bool
}

func (f sutFlags) args() []string {
	var a []string
	if f.stateDir != "" {
		a = append(a, "-state-dir", f.stateDir)
	}
	if f.forecast {
		a = append(a, "-forecast", forecast.PredictorHolt)
	}
	return a
}

// forecastConfig is what "-forecast holt" means to the daemon.
func forecastConfig() *forecast.Config {
	return &forecast.Config{
		Predictor:       forecast.PredictorHolt,
		CorrectionAlpha: forecast.DefaultConfig().CorrectionAlpha,
	}
}

func (f sutFlags) options() serve.Options {
	opts := serve.Options{StateDir: f.stateDir}
	if f.forecast {
		opts.Forecast = forecastConfig()
	}
	return opts
}

// sut is one running instance of the system under test.
type sut interface {
	newTarget() target
	// stop ends it without a goodbye: kill -9 for a process.
	stop()
	peakRSSMB() (float64, error)
}

// launcher starts the system under test and returns once it is ready.
type launcher func(sutFlags) (sut, error)

// procSUT is the real daemon as a child process.
type procSUT struct{ d *daemon }

func processLauncher(bin string) launcher {
	return func(f sutFlags) (sut, error) {
		d, err := startDaemon(bin, f.args()...)
		if err != nil {
			return nil, err
		}
		return procSUT{d}, nil
	}
}

func (p procSUT) newTarget() target           { return newHTTPTarget(p.d.url) }
func (p procSUT) stop()                       { p.d.kill() }
func (p procSUT) peakRSSMB() (float64, error) { return p.d.peakRSSMB() }

// inprocSUT is the same server behind its handler, no process and no
// socket: what the unit tests drive.
type inprocSUT struct{ h http.Handler }

func inprocLauncher(f sutFlags) (sut, error) {
	srv := serve.New(f.options())
	if _, err := srv.ScanState(); err != nil {
		return nil, err
	}
	return inprocSUT{srv.Handler()}, nil
}

func (p inprocSUT) newTarget() target           { return handlerTarget{p.h} }
func (p inprocSUT) stop()                       {}
func (p inprocSUT) peakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }

// outcome is what a workload observed over its timed windows; the
// reported metrics are computed from it.
type outcome struct {
	rec   *recorder
	rssMB float64
	// eagerRestarts and eagerFirst are failover's operator-style
	// restarts: spawn → ready with every checkpoint restored up front,
	// and each cluster's first plan afterwards.
	eagerRestarts, eagerFirst []time.Duration
	// sim is set by paper-sim only.
	sim *simOutcome
}

// workload is one named traffic mix and the system it runs against.
type workload interface {
	// flags are the daemon settings, for the environment record.
	flags() []string
	// setup brings the system from nothing to ready for a timed window:
	// spawn, session creation, warm-up. It may be called again after
	// teardown; every call starts from the same seeded state.
	setup() error
	// measure runs the closed loop for about d and adds to the outcome.
	measure(d time.Duration) error
	teardown()
	outcome() *outcome
}

func newWorkload(name string, seed uint64, size sizing, launch launcher) (workload, error) {
	switch name {
	case wlChurn:
		return &twinWorkload{
			seed: seed, launch: launch, warmup: size.warmup,
			shape: shape{nodes: size.nodes, jobs: size.jobs, period: churnPeriod, churn: true},
		}, nil
	case wlSteady:
		return &twinWorkload{
			seed: seed, launch: launch, warmup: size.warmup, durable: true, deltas: true,
			shape: shape{nodes: size.nodes, jobs: size.jobs, period: steadyPeriod},
		}, nil
	case wlTenants:
		return newTenantsWorkload(seed, size, launch)
	case wlFailover:
		return &failoverWorkload{seed: seed, size: size, launch: launch}, nil
	case wlPaperSim:
		return &simWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// newStateDir makes a fresh state directory under the scratch dir.
func newStateDir() (string, error) {
	return os.MkdirTemp(scratch, "state-")
}

// twinWorkload is one client driving one cluster twin through one
// session: churn (full snapshots, default daemon) and steady (deltas,
// durable forecasting daemon).
type twinWorkload struct {
	seed    uint64
	shape   shape
	launch  launcher
	warmup  int
	durable bool // -state-dir and -forecast holt
	deltas  bool

	sutFlags sutFlags
	sut      sut
	tg       target
	loop     *loop
	out      outcome
}

func (w *twinWorkload) flags() []string {
	if w.durable {
		return sutFlags{stateDir: "<tmp>", forecast: true}.args()
	}
	return nil
}

func (w *twinWorkload) setup() error {
	w.sutFlags = sutFlags{}
	if w.durable {
		dir, err := newStateDir()
		if err != nil {
			return err
		}
		w.sutFlags = sutFlags{stateDir: dir, forecast: true}
	}
	var err error
	if w.sut, err = w.launch(w.sutFlags); err != nil {
		return err
	}
	w.tg = w.sut.newTarget()
	w.loop = &loop{twin: newTwin("c0", w.shape, w.seed), binary: true, deltas: w.deltas}
	for i := 0; i < w.warmup; i++ {
		if err := w.loop.step(w.tg, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *twinWorkload) measure(d time.Duration) error {
	if w.out.rec == nil {
		w.out.rec = newRecorder()
	}
	w.out.rec.begin()
	defer w.out.rec.end()
	for start := time.Now(); time.Since(start) < d; {
		if err := w.loop.step(w.tg, w.out.rec); err != nil {
			return err
		}
	}
	w.out.rssMB, _ = w.sut.peakRSSMB()
	return nil
}

func (w *twinWorkload) teardown() {
	if w.sut != nil {
		closeTarget(w.tg)
		w.sut.stop()
		w.sut = nil
	}
	if w.sutFlags.stateDir != "" {
		os.RemoveAll(w.sutFlags.stateDir)
	}
}

func (w *twinWorkload) outcome() *outcome { return &w.out }

func closeTarget(tg target) {
	if h, ok := tg.(*httpTarget); ok {
		h.close()
	}
}

// tenantVariants is how many demand levels each tenant cycles through:
// consecutive requests differ, so none is answered from the replay tier.
const tenantVariants = 4

// tenant is one small cluster of the consolidated fleet. Its requests
// are encoded once: with a thousand sessions and no think time the
// generator must not be what is measured.
type tenant struct {
	id     string
	tier   int
	bodies [tenantVariants][]byte
	// cycle is the session's cycle count, which is also how many requests
	// the tenant has sent.
	cycle int
}

// tenantsWorkload is the consolidation case: many small sessions on one
// daemon, as many clients as the host has cores for (at most two), no
// think time — so per-request fixed cost dominates and throughput and
// tail mean capacity.
type tenantsWorkload struct {
	launch launcher
	tiers  []tenantTier
	// snaps are each tier's demand variants: what its tenants' requests
	// describe, kept for the audit.
	snaps [][tenantVariants]*api.Snapshot
	// walks are the clients' disjoint tenant orders, each a proportional
	// interleave of the tiers.
	walks [][]*tenant
	pos   []int

	sut     sut
	targets []target
	out     outcome
}

func newTenantsWorkload(seed uint64, size sizing, launch launcher) (*tenantsWorkload, error) {
	clients := min(2, runtime.NumCPU())
	w := &tenantsWorkload{launch: launch, tiers: size.tiers, pos: make([]int, clients)}
	perClient := make([][][]*tenant, clients) // client → tier → tenants
	for c := range perClient {
		perClient[c] = make([][]*tenant, len(size.tiers))
	}
	for ti, tr := range size.tiers {
		// One seeded cluster per tier, relabelled per tenant: session state
		// is per tenant either way, and the planner cannot tell.
		tw := newTwin(fmt.Sprintf("tier%d", ti), shape{nodes: tr.nodes, jobs: tr.jobs, period: steadyPeriod}, seed)
		var variants [tenantVariants]*api.Snapshot
		for v := range variants {
			snap := tw.snap
			snap.Apps = append([]api.App(nil), tw.snap.Apps...)
			for i := range snap.Apps {
				snap.Apps[i].Lambda *= 1 + 0.02*float64(v)
			}
			variants[v] = &snap
		}
		w.snaps = append(w.snaps, variants)
		for i := 0; i < tr.count; i++ {
			tn := &tenant{id: fmt.Sprintf("t%d-%04d", ti, i), tier: ti}
			for v, snap := range variants {
				body, err := encodeRequest(&api.PlanRequest{
					SchemaVersion: api.SchemaVersion, ClusterID: tn.id, Snapshot: snap,
				}, tr.binary)
				if err != nil {
					return nil, err
				}
				tn.bodies[v] = body
			}
			perClient[i%clients][ti] = append(perClient[i%clients][ti], tn)
		}
	}
	for _, byTier := range perClient {
		counts := make([]int, len(byTier))
		for ti := range byTier {
			counts[ti] = len(byTier[ti])
		}
		var walk []*tenant
		next := make([]int, len(byTier))
		for _, ti := range interleave(counts) {
			walk = append(walk, byTier[ti][next[ti]])
			next[ti]++
		}
		w.walks = append(w.walks, walk)
	}
	return w, nil
}

func (w *tenantsWorkload) flags() []string { return nil }

// visit sends the tenant's next request and verifies the reply.
func (w *tenantsWorkload) visit(tn *tenant, tg target, rec *recorder) error {
	binary := w.tiers[tn.tier].binary
	variant := tn.cycle % tenantVariants
	body := tn.bodies[variant]
	start := time.Now()
	status, reply, err := tg.post(body, binary)
	lat := time.Since(start)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("tenant %s: status %d: %s", tn.id, status, reply)
	}
	var resp *api.PlanResponse
	if err == nil {
		resp, err = decodeResponse(reply, binary)
	}
	if err == nil {
		audit := tn.cycle%auditEvery == 0
		err = checkReply(resp, tn.cycle, w.snaps[tn.tier][variant], audit, false)
	}
	if err != nil {
		if rec != nil {
			return rec.fail(err)
		}
		return err
	}
	tn.cycle++
	if rec != nil {
		rec.ok(lat, len(body), len(reply), resp)
		rec.verify = append(rec.verify, time.Since(start)-lat)
	}
	return nil
}

func (w *tenantsWorkload) setup() error {
	var err error
	if w.sut, err = w.launch(sutFlags{}); err != nil {
		return err
	}
	w.targets = nil
	for c, walk := range w.walks {
		tg := w.sut.newTarget()
		w.targets = append(w.targets, tg)
		w.pos[c] = 0
		for _, tn := range walk {
			tn.cycle = 0
			if err := w.visit(tn, tg, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *tenantsWorkload) measure(d time.Duration) error {
	if w.out.rec == nil {
		w.out.rec = newRecorder()
	}
	recs := make([]*recorder, len(w.walks))
	errs := make([]error, len(w.walks))
	var wg sync.WaitGroup
	w.out.rec.begin()
	start := w.out.rec.section
	for c := range w.walks {
		recs[c] = newRecorder()
		recs[c].busy, recs[c].section = w.out.rec.busy, start
		wg.Add(1)
		go func() {
			defer wg.Done()
			walk := w.walks[c]
			for time.Since(start) < d && errs[c] == nil {
				errs[c] = w.visit(walk[w.pos[c]%len(walk)], w.targets[c], recs[c])
				w.pos[c]++
			}
		}()
	}
	wg.Wait()
	w.out.rec.end()
	w.out.rssMB, _ = w.sut.peakRSSMB()
	for c, rec := range recs {
		w.out.rec.merge(rec)
		if errs[c] != nil {
			return errs[c]
		}
	}
	return nil
}

func (w *tenantsWorkload) teardown() {
	if w.sut != nil {
		for _, tg := range w.targets {
			closeTarget(tg)
		}
		w.sut.stop()
		w.sut = nil
	}
}

func (w *tenantsWorkload) outcome() *outcome { return &w.out }

// sessions is the number of tenants, for per-session figures.
func (w *tenantsWorkload) sessions() int {
	n := 0
	for _, walk := range w.walks {
		n += len(walk)
	}
	return n
}

// failoverWorkload measures what a cluster's first request costs on a
// daemon that has never seen it: adopt the checkpoint file, re-plan it
// warm, check the digest, plan the new cycle, write the checkpoint.
// Each round kills the daemon, starts a fresh one on the same state
// dir and sends every cluster's next delta.
//
// The daemon restores every checkpoint it finds before it reports
// ready, which would move the adoption out of the request. So the
// checkpoints sit in a subdirectory while the daemon starts, and each
// is moved back just before its cluster's request — which is also how
// a standby replica meets a dead peer's clusters in a shared state dir.
type failoverWorkload struct {
	seed   uint64
	size   sizing
	launch launcher

	stateDir string
	sut      sut
	loops    []*loop
	out      outcome
}

func (w *failoverWorkload) sutFlags() sutFlags {
	return sutFlags{stateDir: w.stateDir, forecast: true}
}

func (w *failoverWorkload) flags() []string {
	return sutFlags{stateDir: "<tmp>", forecast: true}.args()
}

func (w *failoverWorkload) parkDir() string { return filepath.Join(w.stateDir, "parked") }

func checkpointName(clusterID string) string { return url.PathEscape(clusterID) + ".ckpt" }

func (w *failoverWorkload) setup() error {
	var err error
	if w.stateDir, err = newStateDir(); err != nil {
		return err
	}
	if err := os.Mkdir(w.parkDir(), 0o755); err != nil {
		return err
	}
	if w.sut, err = w.launch(w.sutFlags()); err != nil {
		return err
	}
	tg := w.sut.newTarget()
	defer closeTarget(tg)
	w.loops = nil
	sh := shape{nodes: w.size.nodes, jobs: w.size.jobs, period: steadyPeriod}
	for k := 0; k < w.size.clusters; k++ {
		l := &loop{twin: newTwin(fmt.Sprintf("fo-%d", k), sh, w.seed), binary: true, deltas: true}
		w.loops = append(w.loops, l)
		// Two cycles: the full snapshot that creates the session and one
		// delta, so every checkpoint on disk has a delta-reply base.
		for i := 0; i < 2; i++ {
			if err := l.step(tg, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// restart replaces the daemon with a fresh one that sees an empty
// state dir.
func (w *failoverWorkload) restart() error {
	w.sut.stop()
	w.sut = nil
	for _, l := range w.loops {
		name := checkpointName(l.twin.id)
		if err := os.Rename(filepath.Join(w.stateDir, name), filepath.Join(w.parkDir(), name)); err != nil {
			return err
		}
	}
	var err error
	w.sut, err = w.launch(w.sutFlags())
	return err
}

// eagerRestart restarts the daemon with the checkpoints in place, as an
// operator would: it restores every cluster before it reports ready,
// and the clusters' next requests find their sessions waiting.
func (w *failoverWorkload) eagerRestart() error {
	w.sut.stop()
	w.sut = nil
	start := time.Now()
	var err error
	if w.sut, err = w.launch(w.sutFlags()); err != nil {
		return err
	}
	w.out.eagerRestarts = append(w.out.eagerRestarts, time.Since(start))
	tg := w.sut.newTarget()
	defer closeTarget(tg)
	rec := newRecorder()
	for _, l := range w.loops {
		if err := l.step(tg, rec); err != nil {
			return err
		}
	}
	w.out.eagerFirst = append(w.out.eagerFirst, rec.latency...)
	return nil
}

func (w *failoverWorkload) measure(d time.Duration) error {
	if w.out.rec == nil {
		w.out.rec = newRecorder()
	}
	start := time.Now()
	for time.Since(start) < d {
		if err := w.restart(); err != nil {
			return err
		}
		tg := w.sut.newTarget()
		for _, l := range w.loops {
			name := checkpointName(l.twin.id)
			if err := os.Rename(filepath.Join(w.parkDir(), name), filepath.Join(w.stateDir, name)); err != nil {
				return err
			}
			w.out.rec.begin()
			err := l.step(tg, w.out.rec)
			w.out.rec.end()
			if err != nil {
				return err
			}
		}
		closeTarget(tg)
	}
	w.out.rssMB, _ = w.sut.peakRSSMB()
	return nil
}

func (w *failoverWorkload) teardown() {
	if w.sut != nil {
		w.sut.stop()
		w.sut = nil
	}
	if w.stateDir != "" {
		os.RemoveAll(w.stateDir)
	}
}

func (w *failoverWorkload) outcome() *outcome { return &w.out }
