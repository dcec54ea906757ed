// Package serve implements the placement daemon behind
// cmd/slaplace-serve: an HTTP front end that multiplexes long-lived
// planning sessions (internal/control.Session) keyed by cluster ID.
//
// Endpoints (schema in package api):
//
//	POST /v1/plan     plan one cycle for a cluster. The body is an
//	                  api.PlanRequest: a full snapshot, or a delta
//	                  against the session's retained state. The
//	                  response carries the plan (unless a delta reply
//	                  was requested), the typed action delta against
//	                  the session's previous plan, and reuse stats.
//	GET  /v1/healthz  liveness plus schema version and session count.
//	GET  /v1/stats    per-session cycle and plan-reuse statistics.
//
//	GET  /v1/sessions/{cluster}/checkpoint
//	                  export the cluster's session as an api.Checkpoint
//	                  — everything another daemon needs to continue the
//	                  plan sequence byte for byte.
//	PUT  /v1/sessions/{cluster}/checkpoint
//	                  restore a checkpoint as a new session (409 when
//	                  the cluster already has one) — the migration path
//	                  between replicas.
//
// Documents are JSON by default; a client may negotiate the compact
// binary codec per request ("Content-Type: application/x-slaplace-binary"
// for the body it sends, "Accept: ..." for the response it wants). The
// two codecs are bit-equivalent — plans cannot differ by transport.
//
// Sessions are created on first use per cluster ID and retain the
// controller's incremental state across requests — a steady-state
// cluster pays the carry-over re-plan price, not the from-scratch
// price, on every cycle. Requests for the same cluster serialize on a
// per-session lock; distinct clusters plan concurrently (session
// creation does its heavy work outside the server's session-table
// lock, so a thousand clusters can come up without queueing on it). A
// plan request may carry a "shards" hint: the session created from it
// plans the cluster as that many concurrent partitions
// (internal/shard) — the scale mode for 10k+-node snapshots.
//
// With Options.StateDir set the daemon is durable: each session's
// checkpoint is written there (atomically, every CheckpointEvery
// cycles) and sessions are restored from it on first use after a
// restart — kill -9 loses nothing but the cycles since the last
// checkpoint write.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slaplace/api"
	"slaplace/internal/control"
	"slaplace/internal/core"
	"slaplace/internal/forecast"
	"slaplace/internal/shard"
)

// DefaultMaxBodyBytes bounds a plan request body (64 MiB fits a
// snapshot of several hundred thousand jobs).
const DefaultMaxBodyBytes = 64 << 20

// Options configures a Server.
type Options struct {
	// NewController builds the controller for a new session. nil means
	// the paper's placement controller with the default configuration.
	NewController func() core.Controller
	// MaxSessions caps concurrent sessions; 0 means unlimited. A plan
	// request for a new cluster beyond the cap is rejected with 429.
	MaxSessions int
	// MaxBodyBytes caps a request body; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// StateDir, when set, makes sessions durable: checkpoints are
	// written there and restored from there on first use. Must exist.
	StateDir string
	// CheckpointEvery is the cycle interval between automatic
	// checkpoint writes when StateDir is set; 0 means every cycle.
	CheckpointEvery int
	// ReplicaID identifies this daemon in a replica fleet — by
	// convention its advertised base URL ("http://host:port"), so the
	// ID in a claim file doubles as the 421 routing hint. With StateDir
	// also set, per-cluster claim files make adoption exactly-once
	// across replicas sharing the dir (see claim.go). Empty keeps the
	// single-daemon claimless behavior.
	ReplicaID string
	// Peers are the other replicas' base URLs — the drain hand-off
	// targets, ranked per cluster by the same rendezvous hash the
	// coordinator routes with.
	Peers []string
	// StaleClaimAfter is the claim age past which another replica may
	// take a cluster over (its owner refreshes on every checkpoint
	// write); 0 means 10s.
	StaleClaimAfter time.Duration
	// Forecast, when set, enables predictive planning on every session
	// this daemon creates fresh: snapshots plan against forecast demand
	// instead of observed demand. A plan request's own forecast hint
	// wins over this default, and a restored checkpoint's forecast
	// state wins over both (the restored session must continue the
	// plan sequence it checkpointed, whatever this daemon's flags say).
	Forecast *forecast.Config
	// Logf logs operational events (corrupt state files, checkpoint
	// write failures). nil discards.
	Logf func(format string, args ...any)
}

// Server multiplexes planning sessions keyed by cluster ID.
type Server struct {
	opts Options

	// restoring is set from construction (with a StateDir) until
	// ScanState finishes; draining from Drain onward. Both turn
	// /v1/readyz into a 503 — liveness (/v1/healthz) stays 200.
	restoring atomic.Bool
	draining  atomic.Bool

	mu       sync.Mutex
	sessions map[string]*clusterSession
}

// clusterSession is one hosted session plus what the wire protocol
// layers on top: the previous wire plan (for response deltas) and the
// checkpoint bookkeeping, under a lock that serializes requests for
// the same cluster. The zero value is a placeholder: the creating
// request initializes it through once, outside the server's session-
// table lock, and ready flips only on success.
type clusterSession struct {
	once    sync.Once
	initErr error
	ready   atomic.Bool

	mu   sync.Mutex
	sess *control.Session
	prev *api.Plan
	// ckCycle is the session cycle of the last checkpoint write.
	ckCycle int
}

// New builds a server.
func New(opts Options) *Server {
	if opts.NewController == nil {
		opts.NewController = func() core.Controller { return core.New(core.DefaultConfig()) }
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.CheckpointEvery < 1 {
		opts.CheckpointEvery = 1
	}
	if opts.StaleClaimAfter <= 0 {
		opts.StaleClaimAfter = 10 * time.Second
	}
	s := &Server{opts: opts, sessions: make(map[string]*clusterSession)}
	// A durable server starts not-ready until its owner runs ScanState;
	// a stateless one has nothing to restore.
	s.restoring.Store(opts.StateDir != "")
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/sessions/{cluster}/checkpoint", s.handleCheckpointGet)
	mux.HandleFunc("PUT /v1/sessions/{cluster}/checkpoint", s.handleCheckpointPut)
	return mux
}

// session returns the cluster's session, creating (and, with a state
// dir, restoring) it on first use. shards is the request's sharding
// hint: a session created with shards > 1 plans the cluster as that
// many concurrent partitions (internal/shard); a restored checkpoint's
// own shard count wins over the hint. fc is the request's forecast
// hint with the same precedence: it beats the daemon's Forecast
// option, and a restored checkpoint's forecast state beats both. The
// shape binds at creation; later requests for the same cluster keep
// it.
//
// Only the session-table insert runs under the server lock. The
// expensive part — building the controller, and on restore re-planning
// the checkpointed snapshot — runs outside it, once, with concurrent
// requests for the same new cluster waiting on the session's own init
// and requests for other clusters unaffected.
func (s *Server) session(clusterID string, shards int, fc *api.ForecastConfig) (*clusterSession, int, error) {
	s.mu.Lock()
	cs, ok := s.sessions[clusterID]
	if !ok {
		if s.draining.Load() {
			s.mu.Unlock()
			return nil, http.StatusServiceUnavailable,
				fmt.Errorf("serve: draining, not taking new clusters")
		}
		if s.opts.MaxSessions > 0 && len(s.sessions) >= s.opts.MaxSessions {
			s.mu.Unlock()
			return nil, http.StatusTooManyRequests,
				fmt.Errorf("serve: session limit %d reached", s.opts.MaxSessions)
		}
		cs = &clusterSession{}
		s.sessions[clusterID] = cs
	}
	s.mu.Unlock()

	cs.once.Do(func() { cs.initErr = s.initSession(cs, clusterID, shards, fc) })
	if cs.initErr != nil {
		// Evict the failed placeholder so a later request can retry.
		s.mu.Lock()
		if s.sessions[clusterID] == cs {
			delete(s.sessions, clusterID)
		}
		s.mu.Unlock()
		status := http.StatusInternalServerError
		var notOwner *notOwnerError
		if errors.As(cs.initErr, &notOwner) {
			// Not a failure: the cluster lives on another replica. 421
			// plus the owner hint sends the client straight there.
			status = http.StatusMisdirectedRequest
		}
		return nil, status, cs.initErr
	}
	return cs, http.StatusOK, nil
}

// initSession builds a placeholder session's controller and state:
// from the state-dir checkpoint when one exists and is usable, fresh
// otherwise. A corrupt or mismatched checkpoint is logged and ignored
// — a daemon must come up after a crash even if the disk lost a race
// with it.
func (s *Server) initSession(cs *clusterSession, clusterID string, shards int, fc *api.ForecastConfig) error {
	// Claim before touching state: with replicas sharing the state dir,
	// exactly one may adopt (or create) a cluster at a time.
	if err := s.acquireClaim(clusterID); err != nil {
		return err
	}
	if s.opts.StateDir != "" {
		ck, err := s.readCheckpoint(clusterID)
		switch {
		case err != nil:
			s.logf("serve: checkpoint for %q unreadable, starting fresh: %v", clusterID, err)
		case ck != nil:
			if err := s.restoreInto(cs, ck); err != nil {
				s.logf("serve: checkpoint for %q unusable, starting fresh: %v", clusterID, err)
			} else {
				cs.ready.Store(true)
				return nil
			}
		}
	}
	sess, err := control.NewSession(shard.Wrap(shards, s.opts.NewController))
	if err != nil {
		return err
	}
	// Forecasting: the request hint wins over the daemon default (the
	// restore path never reaches here — a checkpoint's forecast state
	// rides control.RestoreSession).
	fcfg := s.opts.Forecast
	if fc != nil {
		cfg := fc.Config()
		fcfg = &cfg
	}
	if fcfg != nil {
		if err := sess.EnableForecast(*fcfg); err != nil {
			return err
		}
	}
	cs.sess = sess
	cs.ready.Store(true)
	return nil
}

// restoreInto rebuilds a session from a checkpoint, in the shape the
// checkpoint records; the control session re-plans the checkpointed
// snapshot to warm the controller and digest-checks the result against
// the checkpointed plan.
func (s *Server) restoreInto(cs *clusterSession, ck *api.Checkpoint) error {
	sess, err := control.RestoreSession(shard.Wrap(ck.Shards, s.opts.NewController), ck)
	if err != nil {
		return err
	}
	cs.sess, cs.prev, cs.ckCycle = sess, ck.Plan, ck.Cycle
	return nil
}

// lookup returns the cluster's session only if it exists and finished
// initializing.
func (s *Server) lookup(clusterID string) *clusterSession {
	s.mu.Lock()
	cs := s.sessions[clusterID]
	s.mu.Unlock()
	if cs == nil || !cs.ready.Load() {
		return nil
	}
	return cs
}

// httpError writes a JSON error body (errors are never binary). A
// notOwnerError carries the owning replica's ID into the body's owner
// field — the hint the retrying client follows after a 421.
func httpError(w http.ResponseWriter, status int, err error) {
	resp := api.ErrorResponse{Error: err.Error()}
	var notOwner *notOwnerError
	if errors.As(err, &notOwner) {
		resp.Owner = notOwner.owner
	}
	w.Header().Set("Content-Type", api.ContentTypeJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}

// writeJSON writes one JSON response document.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", api.ContentTypeJSON)
	data, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	data = append(data, '\n')
	_, _ = w.Write(data)
}

// sendsBinary reports whether the request body is in the binary codec.
func sendsBinary(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), api.ContentTypeBinary)
}

// acceptsBinary reports whether the client asked for a binary response.
func acceptsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), api.ContentTypeBinary)
}

// sizedReader announces how many bytes the reader is expected to
// yield, so the binary decoders read a document into one buffer of
// that size instead of growing one. A hint only: they cap what they
// allocate on it and read shorter or longer input correctly.
type sizedReader struct {
	io.Reader
	n int64
}

func (r sizedReader) Len() int { return int(r.n) }

// requestBody bounds a request body by MaxBodyBytes — oversize is still
// rejected mid-read — and passes on the length the client announced.
func (s *Server) requestBody(w http.ResponseWriter, r *http.Request) io.Reader {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if r.ContentLength <= 0 {
		return body
	}
	return sizedReader{body, r.ContentLength}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	body := s.requestBody(w, r)
	var req *api.PlanRequest
	var err error
	if sendsBinary(r) {
		req, err = api.DecodePlanRequestBinary(body)
	} else {
		req, err = api.DecodePlanRequest(body)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	clusterID := req.ClusterID
	if clusterID == "" {
		clusterID = "default"
	}
	cs, status, err := s.session(clusterID, req.Shards, req.Forecast)
	if err != nil {
		httpError(w, status, err)
		return
	}

	cs.mu.Lock()
	defer cs.mu.Unlock()
	var plan *api.Plan
	var stats core.PlanStats
	if req.Snapshot != nil {
		plan, stats, err = cs.sess.Propose(req.Snapshot)
	} else {
		plan, stats, err = cs.sess.ProposeDelta(req.Delta)
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, control.ErrBaseCycleMismatch) ||
			errors.Is(err, control.ErrNoBaseSnapshot) ||
			errors.Is(err, control.ErrTimeRegression) {
			status = http.StatusConflict
		}
		httpError(w, status, err)
		return
	}

	resp := &api.PlanResponse{
		SchemaVersion: api.SchemaVersion,
		ClusterID:     clusterID,
		Cycle:         cs.sess.Cycles(),
	}
	if cs.sess.TracksStats() {
		resp.PlanMode = stats.LastMode.String()
		resp.Stats = wireStats(stats)
	}
	// On the session's first cycle prev is nil and Diff returns the
	// bootstrap delta against the empty placement, so a delta-reply
	// client always receives something enactable.
	resp.Delta = plan.Diff(cs.prev)
	if req.Reply != api.ReplyDelta {
		resp.Plan = plan
	}
	cs.prev = plan

	// Durability: roll the cluster's state file forward on schedule. A
	// write failure costs durability, not availability — the plan
	// response still goes out.
	if s.opts.StateDir != "" && cs.sess.Cycles()-cs.ckCycle >= s.opts.CheckpointEvery {
		if err := s.checkpointLocked(cs, clusterID); err != nil {
			s.logf("serve: checkpoint write for %q failed: %v", clusterID, err)
		}
	}

	if acceptsBinary(r) {
		w.Header().Set("Content-Type", api.ContentTypeBinary)
		if err := api.EncodePlanResponseBinary(w, resp); err != nil {
			s.logf("serve: binary response for %q failed: %v", clusterID, err)
		}
		return
	}
	w.Header().Set("Content-Type", api.ContentTypeJSON)
	if err := api.EncodePlanResponse(w, resp); err != nil {
		// A value JSON cannot carry answers 500, as writeJSON does: a
		// reply shorter than the writer's spill size has sent nothing.
		var unsupported *json.UnsupportedValueError
		if errors.As(err, &unsupported) {
			httpError(w, http.StatusInternalServerError, unsupported)
			return
		}
		s.logf("serve: JSON response for %q failed: %v", clusterID, err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, &api.HealthResponse{
		Status:        "ok",
		SchemaVersion: api.SchemaVersion,
		Sessions:      n,
		ReplicaID:     s.opts.ReplicaID,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	byID := make(map[string]*clusterSession, len(s.sessions))
	for id, cs := range s.sessions {
		if !cs.ready.Load() {
			continue // mid-initialization placeholder
		}
		ids = append(ids, id)
		byID[id] = cs
	}
	s.mu.Unlock()
	sort.Strings(ids)

	resp := &api.StatsResponse{SchemaVersion: api.SchemaVersion, Sessions: []api.SessionStats{}}
	for _, id := range ids {
		cs := byID[id]
		ss := api.SessionStats{
			ClusterID:  id,
			Controller: cs.sess.Name(),
			Cycles:     cs.sess.Cycles(),
		}
		if sc, ok := cs.sess.Controller().(*shard.Controller); ok && sc.Shards() > 1 {
			d := sc.Diagnostics()
			ss.Shards = sc.Shards()
			ss.EffectiveShards = d.EffectiveShards
			ss.ShardLoadSpread = d.LoadSpread
			ss.Reshards = d.Reshards
		}
		if cs.sess.TracksStats() {
			ss.Stats = wireStats(cs.sess.PlanStats())
		}
		if cfg, on := cs.sess.ForecastConfig(); on {
			ss.ForecastPredictor = cfg.Predictor
		}
		resp.Sessions = append(resp.Sessions, ss)
	}
	writeJSON(w, resp)
}

// NewHTTPServer wraps a handler in an http.Server with server-side
// timeouts set — without them a slow-loris client trickling a request
// byte at a time holds a connection (and its daemon goroutine) open
// forever. writeTimeout must cover the slowest plan cycle, so its
// default is generous.
func NewHTTPServer(h http.Handler, readTimeout, writeTimeout time.Duration) *http.Server {
	if readTimeout <= 0 {
		readTimeout = 30 * time.Second
	}
	if writeTimeout <= 0 {
		writeTimeout = 2 * time.Minute
	}
	headerTimeout := readTimeout
	if headerTimeout > 10*time.Second {
		headerTimeout = 10 * time.Second
	}
	return &http.Server{
		Handler:           h,
		ReadTimeout:       readTimeout,
		ReadHeaderTimeout: headerTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
}

// wireStats converts controller plan stats to their wire form.
func wireStats(stats core.PlanStats) *api.PlanStats {
	return &api.PlanStats{
		Full:               stats.Full,
		Incremental:        stats.Incremental,
		Replayed:           stats.Replayed,
		LastMode:           stats.LastMode.String(),
		LastDemandDeltaMHz: float64(stats.LastDemandDelta),
	}
}
