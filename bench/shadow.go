package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"slaplace/api"
	"slaplace/internal/control"
	"slaplace/internal/core"
	"slaplace/internal/forecast"
	"slaplace/internal/replica"
	"slaplace/internal/serve"
)

// The traced run answers "which layer does each microsecond of a plan
// request belong to" without touching the daemon: it rebuilds the
// daemon's request handler out of the public calls the handler itself
// makes, times each call as a span, and sends the same request through
// the real handler (and a control.Session) as well. The three replies
// must be byte-identical — that is what licenses reading the shadow's
// spans as the handler's.

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Tier    string `json:"tier,omitempty"` // core.plan only: the re-plan tier taken
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans in memory; the run writes them out when it ends.
type tracer struct {
	t0    time.Time
	req   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// time runs f as a span under parent and returns the span's ID.
func (tr *tracer) time(name string, parent int, f func()) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: tr.req, Name: name, StartNs: int64(time.Since(tr.t0))})
	f()
	tr.spans[id-1].EndNs = int64(time.Since(tr.t0))
	return id
}

// durations groups span durations by name. With self set a span counts
// only the part of its interval its child spans do not cover.
func (tr *tracer) durations(self bool) map[string][]time.Duration {
	children := make(map[int]int64)
	if self {
		for _, s := range tr.spans {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range tr.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.EndNs-s.StartNs-children[s.ID]))
	}
	return out
}

// byTier groups the core.plan spans by the tier the planner took.
func (tr *tracer) byTier() map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range tr.spans {
		if s.Name == spanPlan {
			out[s.Tier] = append(out[s.Tier], time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}

// write stores the spans as one JSON document.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Span names. The stage spans are the shadow's, in handler order; the
// rest are whole paths through the other implementations.
const (
	spanRequest    = "shadow.request"
	spanDecode     = "api.decode"
	spanConvertIn  = "api.convert_in"
	spanForecast   = "forecast.predict"
	spanPlan       = "core.plan"
	spanConvertOut = "api.convert_out"
	spanDiff       = "api.diff"
	spanExport     = "control.export"
	spanCkptEncode = "api.ckpt_encode"
	spanFsync      = "serve.fsync_probe"
	spanEncode     = "api.encode"
	spanCkptDecode = "api.ckpt_decode"
	spanRestore    = "control.restore"
	spanPropose    = "control.propose"
	spanHandler    = "serve.handler"         // the handler without a state dir
	spanDurable    = "serve.handler_durable" // the handler with one
	spanForward    = "replica.forward"       // the coordinator in front of a handler
	spanJSONDecode = "api.json_decode"
	spanJSONEncode = "api.json_encode"
)

// planStages are the handler's stages on every request; durableStages
// the ones a state dir adds, restoreStages the ones an adoption adds.
var (
	planStages    = []string{spanDecode, spanConvertIn, spanForecast, spanPlan, spanConvertOut, spanDiff, spanEncode}
	durableStages = []string{spanExport, spanCkptEncode, spanFsync}
	restoreStages = []string{spanCkptDecode, spanRestore}
)

// shadow is one cluster's session rebuilt from public calls: what
// serve's clusterSession and control.Session hold between requests.
type shadow struct {
	ctrl    *core.PlacementController
	fc      *forecast.Forecaster // nil unless the daemon runs with -forecast
	state   *core.State          // the retained snapshot, observed demand
	prev    *api.Plan
	cycles  int
	lastNow float64
}

func newShadow(withForecast bool) (*shadow, error) {
	s := &shadow{ctrl: core.New(core.DefaultConfig())}
	if withForecast {
		fc, err := forecast.New(*forecastConfig())
		if err != nil {
			return nil, err
		}
		s.fc = fc
	}
	return s, nil
}

// predicted is control.Session's forecast stage: the state the planner
// sees carries predicted arrival rates, the retained one observed ones.
func (s *shadow) predicted(st *core.State) *core.State {
	if s.fc == nil || len(st.Apps) == 0 {
		return st
	}
	out := &core.State{Now: st.Now, Nodes: st.Nodes, Jobs: st.Jobs}
	out.Apps = append([]core.AppInfo(nil), st.Apps...)
	for i := range out.Apps {
		a := &out.Apps[i]
		a.Lambda = s.fc.Forecast(string(a.ID), st.Now, a.Lambda)
	}
	return out
}

// restoreShadow is control.RestoreSession from public calls: a fresh
// controller warmed by re-planning the checkpointed snapshot, the
// result digest-checked against the checkpointed plan.
func restoreShadow(ck *api.Checkpoint) (*shadow, error) {
	s := &shadow{ctrl: core.New(core.DefaultConfig())}
	if ck.Forecast != nil {
		fc, err := forecast.Restore(ck.Forecast.State())
		if err != nil {
			return nil, err
		}
		s.fc = fc
	}
	st, err := ck.Snapshot.CoreState()
	if err != nil {
		return nil, err
	}
	plan := s.ctrl.Plan(s.predicted(st))
	want, err := ck.Plan.CorePlan()
	if err != nil {
		return nil, err
	}
	if plan.Digest() != want.Digest() {
		return nil, control.ErrCheckpointMismatch
	}
	s.state, s.prev, s.cycles, s.lastNow = st, ck.Plan, ck.Cycle, ck.LastNowSec
	return s, nil
}

func decodeRequest(body []byte, binary bool) (*api.PlanRequest, error) {
	if binary {
		return api.DecodePlanRequestBinary(bytes.NewReader(body))
	}
	return api.DecodePlanRequest(bytes.NewReader(body))
}

// response assembles the reply the way serve's handlePlan does.
func response(req *api.PlanRequest, cycle int, stats core.PlanStats, plan *api.Plan, delta []api.Action) *api.PlanResponse {
	resp := &api.PlanResponse{
		SchemaVersion: api.SchemaVersion,
		ClusterID:     req.ClusterID,
		Cycle:         cycle,
		PlanMode:      stats.LastMode.String(),
		Stats: &api.PlanStats{
			Full:               stats.Full,
			Incremental:        stats.Incremental,
			Replayed:           stats.Replayed,
			LastMode:           stats.LastMode.String(),
			LastDemandDeltaMHz: float64(stats.LastDemandDelta),
		},
		Delta: delta,
	}
	if req.Reply != api.ReplyDelta {
		resp.Plan = plan
	}
	return resp
}

// serve runs one request through the shadow's stages, each a span under
// root. checkpoint, when set, runs between diff and encode, where the
// handler writes its state file.
func (s *shadow) serve(tr *tracer, root int, body []byte, binary bool, checkpoint func()) ([]byte, error) {
	var req *api.PlanRequest
	var st *core.State
	var err error
	tr.time(spanDecode, root, func() { req, err = decodeRequest(body, binary) })
	if err != nil {
		return nil, err
	}
	tr.time(spanConvertIn, root, func() {
		if req.Snapshot != nil {
			if err = req.Snapshot.Validate(); err == nil {
				st, err = req.Snapshot.CoreState()
			}
			return
		}
		if s.state == nil || req.Delta.BaseCycle != s.cycles {
			err = fmt.Errorf("shadow: delta base %d, session at %d", req.Delta.BaseCycle, s.cycles)
			return
		}
		st, err = req.Delta.ApplyTo(s.state)
	})
	if err == nil && s.cycles > 0 && st.Now < s.lastNow {
		err = control.ErrTimeRegression
	}
	if err != nil {
		return nil, err
	}
	planned := st
	if s.fc != nil {
		tr.time(spanForecast, root, func() { planned = s.predicted(st) })
	}
	var plan *core.Plan
	planSpan := tr.time(spanPlan, root, func() { plan = s.ctrl.Plan(planned) })
	stats := s.ctrl.PlanStats()
	tr.spans[planSpan-1].Tier = stats.LastMode.String()
	var wire *api.Plan
	tr.time(spanConvertOut, root, func() { wire, err = api.FromCorePlan(st, plan) })
	if err != nil {
		return nil, err
	}
	var delta []api.Action
	tr.time(spanDiff, root, func() { delta = wire.Diff(s.prev) })
	s.cycles++
	resp := response(req, s.cycles, stats, wire, delta)
	s.state, s.prev, s.lastNow = st, wire, st.Now
	if checkpoint != nil {
		checkpoint()
	}
	var reply []byte
	tr.time(spanEncode, root, func() { reply, err = encodeResponse(resp, binary) })
	return reply, err
}

// traced is one cluster in the traced run: its shadow, the parallel
// control.Session, and the latest checkpoint either would write.
type traced struct {
	shadow   *shadow
	sess     *control.Session
	prev     *api.Plan // the session path's previous wire plan
	lastCkpt []byte
}

// traceTarget is the traced run's stand-in for the daemon. Every
// request goes through the shadow, a control.Session and the real
// handler — with and without a state dir when the workload's daemon has
// one — and the replies are compared byte for byte.
type traceTarget struct {
	tr *tracer
	// durable mirrors a daemon run with -state-dir and -forecast holt.
	durable bool
	// adopt makes every request meet a server that has never seen the
	// cluster and must restore it from its checkpoint (failover).
	adopt bool
	// jsonToo also times the JSON codec on the same payload (churn).
	jsonToo bool
	// coordinator also sends every request through a replica.Coordinator
	// in front of a server of its own (tenants).
	coordinator bool

	clusters map[string]*traced
	stateDir string
	plain    http.Handler // the handler without a state dir
	kept     http.Handler // the handler with one, when sessions persist
	forward  http.Handler // the coordinator, when asked for

	requests, mismatches int
	ckptBytes            []int
}

// start builds the servers the target's settings call for.
func (t *traceTarget) start() error {
	t.tr = newTracer()
	t.clusters = map[string]*traced{}
	t.plain = serve.New(sutFlags{forecast: t.durable}.options()).Handler()
	if t.durable {
		dir, err := newStateDir()
		if err != nil {
			return err
		}
		t.stateDir = dir
		t.kept = serve.New(sutFlags{stateDir: dir, forecast: true}.options()).Handler()
	}
	if t.coordinator {
		// The coordinator reaches its one replica through an in-process
		// transport, so the difference to the direct handler is the
		// forwarding work alone.
		const replicaURL = "http://replica-0"
		backend := serve.New(serve.Options{}).Handler()
		co, err := replica.NewCoordinator(replica.CoordinatorOptions{
			Replicas: []string{replicaURL},
			HTTP:     &http.Client{Transport: handlerTransport{backend}},
		})
		if err != nil {
			return err
		}
		t.forward = co.Handler()
	}
	return nil
}

// handlerTransport answers HTTP client requests from a handler.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, req)
	resp := w.Result()
	resp.Request = req
	return resp, nil
}

func (t *traceTarget) close() {
	if t.stateDir != "" {
		os.RemoveAll(t.stateDir)
	}
}

// cluster returns the traced state of a cluster, creating it on its
// first request.
func (t *traceTarget) cluster(id string) (c *traced, first bool, err error) {
	if c = t.clusters[id]; c != nil {
		return c, false, nil
	}
	c = &traced{}
	if c.shadow, err = newShadow(t.durable); err != nil {
		return nil, false, err
	}
	if c.sess, err = control.NewSession(core.New(core.DefaultConfig())); err != nil {
		return nil, false, err
	}
	if t.durable {
		if err = c.sess.EnableForecast(*forecastConfig()); err != nil {
			return nil, false, err
		}
	}
	t.clusters[id] = c
	return c, true, nil
}

// adoptSessions replaces the cluster's session and shadow with ones
// restored from its last checkpoint, as a daemon that has never seen the
// cluster would.
func (t *traceTarget) adoptSessions(c *traced) error {
	var ck *api.Checkpoint
	var err error
	t.tr.time(spanCkptDecode, 0, func() { ck, err = api.DecodeCheckpointBinary(bytes.NewReader(c.lastCkpt)) })
	if err != nil {
		return err
	}
	t.tr.time(spanRestore, 0, func() { c.sess, err = control.RestoreSession(core.New(core.DefaultConfig()), ck) })
	if err != nil {
		return err
	}
	c.prev = ck.Plan
	c.shadow, err = restoreShadow(ck)
	return err
}

// adoptServers builds the fresh servers an adopted cluster's request
// meets: the durable one restores it from the state file on first use,
// the plain one is handed the same checkpoint first.
func (t *traceTarget) adoptServers(clusterID string, ckpt []byte) (plain, durable http.Handler, err error) {
	srv := serve.New(sutFlags{forecast: true}.options())
	put := httptest.NewRequest(http.MethodPut, "/v1/sessions/"+clusterID+"/checkpoint", bytes.NewReader(ckpt))
	put.Header.Set("Content-Type", api.ContentTypeBinary)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, put)
	if w.Code != http.StatusNoContent {
		return nil, nil, fmt.Errorf("checkpoint PUT: %d: %s", w.Code, w.Body)
	}
	return srv.Handler(), serve.New(sutFlags{stateDir: t.stateDir, forecast: true}.options()).Handler(), nil
}

// post implements target.
func (t *traceTarget) post(body []byte, binary bool) (int, []byte, error) {
	t.tr.req++
	t.requests++
	// Untimed: every request starts from a collected heap, and none of its
	// paths allocates enough to need a collection of its own.
	runtime.GC()
	req, err := decodeRequest(body, binary)
	if err != nil {
		return 0, nil, err
	}
	c, first, err := t.cluster(req.ClusterID)
	if err != nil {
		return 0, nil, err
	}
	plain, durable := t.plain, t.kept
	if t.adopt && !first {
		if plain, durable, err = t.adoptServers(req.ClusterID, c.lastCkpt); err != nil {
			return 0, nil, err
		}
		if err = t.adoptSessions(c); err != nil {
			return 0, nil, err
		}
	}

	// The control.Session path goes first: the shadow's checkpoint stage
	// exports from this session, which must have planned the request.
	var plan *api.Plan
	var stats core.PlanStats
	t.tr.time(spanPropose, 0, func() {
		if req.Snapshot != nil {
			plan, stats, err = c.sess.Propose(req.Snapshot)
		} else {
			plan, stats, err = c.sess.ProposeDelta(req.Delta)
		}
	})
	if err != nil {
		return 0, nil, err
	}
	sessResp := response(req, c.sess.Cycles(), stats, plan, plan.Diff(c.prev))
	c.prev = plan
	fromSession, err := encodeResponse(sessResp, binary)
	if err != nil {
		return 0, nil, err
	}

	var ckErr error
	var checkpoint func()
	root := len(t.tr.spans) + 1 // the ID the request span is about to get
	if t.durable {
		checkpoint = func() {
			var ck *api.Checkpoint
			t.tr.time(spanExport, root, func() { ck, ckErr = c.sess.Export() })
			if ckErr != nil {
				return
			}
			ck.ClusterID = req.ClusterID
			var buf bytes.Buffer
			t.tr.time(spanCkptEncode, root, func() { ckErr = api.EncodeCheckpointBinary(&buf, ck) })
			c.lastCkpt = buf.Bytes()
			t.ckptBytes = append(t.ckptBytes, buf.Len())
			if ckErr == nil {
				t.tr.time(spanFsync, root, func() { ckErr = fsyncProbe(t.stateDir, c.lastCkpt) })
			}
		}
	}
	var fromShadow []byte
	t.tr.time(spanRequest, 0, func() { fromShadow, err = c.shadow.serve(t.tr, root, body, binary, checkpoint) })
	if err == nil {
		err = ckErr
	}
	if err != nil {
		return 0, nil, err
	}
	match := bytes.Equal(fromSession, fromShadow)

	// The real handler: as the workload's daemon runs it, and the variants
	// the per-layer differences are taken against.
	for _, path := range []struct {
		span string
		h    http.Handler
	}{{spanHandler, plain}, {spanDurable, durable}, {spanForward, t.forward}} {
		if path.h == nil {
			continue
		}
		var status int
		var reply []byte
		t.tr.time(path.span, 0, func() { status, reply, _ = handlerTarget{path.h}.post(body, binary) })
		if status != http.StatusOK {
			return status, reply, nil
		}
		match = match && bytes.Equal(reply, fromShadow)
	}
	if !match {
		t.mismatches++
	}

	if t.jsonToo {
		asJSON, err := encodeRequest(req, false)
		if err != nil {
			return 0, nil, err
		}
		t.tr.time(spanJSONDecode, 0, func() { _, err = decodeRequest(asJSON, false) })
		if err != nil {
			return 0, nil, err
		}
		t.tr.time(spanJSONEncode, 0, func() { _, err = encodeResponse(sessResp, false) })
		if err != nil {
			return 0, nil, err
		}
	}
	return http.StatusOK, fromShadow, nil
}

// fsyncProbe is the benchmark's own copy of the daemon's state-file
// write — temp file, fsync, rename — with the same bytes in the same
// directory. It tells disk cost from code cost, and a host whose state
// dir is memory-backed shows here as a probe that costs nothing.
func fsyncProbe(dir string, data []byte) error {
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after the rename
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), filepath.Join(dir, "probe.bin"))
}

// medianUs is the median of the named spans in µs, 0 when there are
// none.
func medianUs(d map[string][]time.Duration, name string) float64 {
	return medianIn(d[name], time.Microsecond)
}

// pairedMedianUs is the median of a[i] − b[i] in µs: both span series
// come from the same requests in the same order.
func pairedMedianUs(a, b []time.Duration) float64 {
	n := min(len(a), len(b))
	diffs := make([]float64, n)
	for i := range diffs {
		diffs[i] = float64(a[i]-b[i]) / float64(time.Microsecond)
	}
	sort.Float64s(diffs)
	return median(diffs)
}
