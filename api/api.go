// Package api defines the versioned wire schema of the placement
// service: Snapshot (what a cluster looks like right now), Plan (what
// the controller wants it to look like), and Action (one step from the
// former to the latter), plus the request/response envelopes of the
// HTTP daemon (cmd/slaplace-serve).
//
// Schema contract:
//
//   - Every top-level document carries "schemaVersion". Fields are only
//     ever added within a version; removals or meaning changes bump it.
//   - Decoders tolerate unknown fields (a newer peer may send more) and
//     accept any version from 1 up to their own SchemaVersion.
//   - CPU power is MHz, memory is MB, work is MHz·seconds, times are
//     seconds — the paper's units, spelled out in the field names.
//   - Observed quantities that are legitimately infinite (the response
//     time of an overloaded application) use the Float type, which
//     round-trips ±Inf and NaN through JSON as quoted strings.
//
// Codecs: JSON (the default) and a compact binary form, negotiated per
// request. Both run on one per-type walk (binary.go), so neither uses
// reflection on the hot path; the JSON bytes are json.Marshal's, and a
// JSON document outside the canonical subset the walks read is decoded
// by encoding/json, with the same result it always had (json.go).
//
// The conversion methods (Snapshot.CoreState, FromCorePlan, ...) bridge
// to the in-process planner types; external consumers need only the
// wire structs, the codecs, and Plan.Diff.
package api

import (
	"fmt"
	"math"
	"sync"
)

// SchemaVersion is the wire schema version this package speaks.
// Decoders accept documents from 1 through SchemaVersion.
const SchemaVersion = 1

// Snapshot is the wire form of a cluster monitoring snapshot: the
// input of one control cycle.
type Snapshot struct {
	SchemaVersion int     `json:"schemaVersion"`
	Now           float64 `json:"now"`
	Nodes         []Node  `json:"nodes"`
	Jobs          []Job   `json:"jobs,omitempty"`
	Apps          []App   `json:"apps,omitempty"`
}

// Node is one node's capacity.
type Node struct {
	ID     string  `json:"id"`
	CPUMHz float64 `json:"cpuMHz"`
	MemMB  int64   `json:"memMB"`
}

// Job state strings on the wire.
const (
	JobPending   = "pending"
	JobRunning   = "running"
	JobSuspended = "suspended"
)

// Job is one incomplete long-running job.
type Job struct {
	ID    string `json:"id"`
	Class string `json:"class,omitempty"`
	// State is one of JobPending, JobRunning, JobSuspended.
	State string `json:"state"`
	// Node and ShareMHz describe the current placement when running.
	Node     string  `json:"node,omitempty"`
	ShareMHz float64 `json:"shareMHz,omitempty"`
	// Migrating flags an in-flight live migration; the planner must
	// leave such a job alone.
	Migrating     bool    `json:"migrating,omitempty"`
	RemainingMHzs float64 `json:"remainingMHzs"`
	MaxSpeedMHz   float64 `json:"maxSpeedMHz"`
	MemMB         int64   `json:"memMB"`
	// GoalSec is the absolute completion-time goal.
	GoalSec      float64    `json:"goalSec"`
	SubmittedSec float64    `json:"submittedSec"`
	Utility      *UtilityFn `json:"utility,omitempty"`
}

// App is one transactional (web) application.
type App struct {
	ID string `json:"id"`
	// Lambda is the measured arrival rate in req/s.
	Lambda            float64    `json:"lambda"`
	RTGoalSec         float64    `json:"rtGoalSec"`
	Model             Model      `json:"model"`
	Utility           *UtilityFn `json:"utility,omitempty"`
	InstanceMemMB     int64      `json:"instanceMemMB"`
	MaxPerInstanceMHz float64    `json:"maxPerInstanceMHz"`
	MinInstances      int        `json:"minInstances,omitempty"`
	MaxInstances      int        `json:"maxInstances,omitempty"`
	Instances         []Instance `json:"instances,omitempty"`
	// MeasuredRTSec is the observed mean response time this cycle:
	// +Inf when overloaded, 0 when unknown.
	MeasuredRTSec Float `json:"measuredRTSec,omitempty"`
}

// Instance is one placed application instance.
type Instance struct {
	Node     string  `json:"node"`
	ShareMHz float64 `json:"shareMHz"`
}

// Queueing model type strings on the wire.
const (
	ModelMG1PS = "mg1ps"
	ModelMM1   = "mm1"
	ModelMMc   = "mmc"
)

// Model is the wire form of a queueing performance model.
type Model struct {
	// Type is one of ModelMG1PS, ModelMM1, ModelMMc.
	Type         string  `json:"type"`
	DemandMHzs   float64 `json:"demandMHzs"`
	CoreSpeedMHz float64 `json:"coreSpeedMHz,omitempty"`
}

// Utility function type strings on the wire.
const (
	FnLinear    = "linear"
	FnSigmoid   = "sigmoid"
	FnPiecewise = "piecewise"
)

// UtilityFn is the wire form of a utility function. A nil *UtilityFn
// means the workload uses the default (linear with floor -1).
type UtilityFn struct {
	// Type is one of FnLinear, FnSigmoid, FnPiecewise.
	Type   string  `json:"type"`
	Floor  float64 `json:"floor,omitempty"`
	K      float64 `json:"k,omitempty"`
	Points []Point `json:"points,omitempty"`
}

// Point is one (performance, utility) breakpoint of a piecewise fn.
type Point struct {
	P float64 `json:"p"`
	U float64 `json:"u"`
}

// Action kind strings on the wire.
const (
	ActionStartJob         = "startJob"
	ActionResumeJob        = "resumeJob"
	ActionSuspendJob       = "suspendJob"
	ActionMigrateJob       = "migrateJob"
	ActionSetJobShare      = "setJobShare"
	ActionAddInstance      = "addInstance"
	ActionRemoveInstance   = "removeInstance"
	ActionSetInstanceShare = "setInstanceShare"
)

// Action is one placement decision on the wire. Exactly one of Job and
// App is set; Node is the target node (the destination for a
// migration); ShareMHz is the planned CPU share where applicable.
type Action struct {
	Type     string  `json:"type"`
	Job      string  `json:"job,omitempty"`
	App      string  `json:"app,omitempty"`
	Node     string  `json:"node,omitempty"`
	ShareMHz float64 `json:"shareMHz,omitempty"`
}

// Plan is the wire form of a controller's output: the action list, the
// placement that results from enacting it, and the plan diagnostics
// (the paper's predicted/demand series).
type Plan struct {
	SchemaVersion int      `json:"schemaVersion"`
	Actions       []Action `json:"actions,omitempty"`
	// Placement is the desired post-plan state. Callers that track it
	// can enact Plan.Diff deltas instead of re-reading placements.
	Placement   Placement   `json:"placement"`
	Diagnostics Diagnostics `json:"diagnostics"`
}

// Placement is a full desired placement: every incomplete job's
// assignment and every application's instance set, each sorted by ID.
type Placement struct {
	Jobs []JobPlacement `json:"jobs,omitempty"`
	Apps []AppPlacement `json:"apps,omitempty"`
}

// JobPlacement is one job's post-plan assignment.
type JobPlacement struct {
	ID string `json:"id"`
	// State is JobRunning, JobSuspended or JobPending.
	State    string  `json:"state"`
	Node     string  `json:"node,omitempty"`
	ShareMHz float64 `json:"shareMHz,omitempty"`
}

// AppPlacement is one application's post-plan instance set, sorted by
// node ID.
type AppPlacement struct {
	ID        string     `json:"id"`
	Instances []Instance `json:"instances,omitempty"`
}

// Diagnostics carries the plan's predictions — what the experiment
// harness records as the paper's figure series.
type Diagnostics struct {
	EqualizedUtility       Float            `json:"equalizedUtility"`
	HypotheticalJobUtility Float            `json:"hypotheticalJobUtility"`
	ClassHypoUtility       map[string]Float `json:"classHypoUtility,omitempty"`
	JobDemandMHz           Float            `json:"jobDemandMHz"`
	JobTargetMHz           Float            `json:"jobTargetMHz"`
	AppPrediction          map[string]Float `json:"appPrediction,omitempty"`
	AppDemandMHz           map[string]Float `json:"appDemandMHz,omitempty"`
	AppTargetMHz           map[string]Float `json:"appTargetMHz,omitempty"`
}

// PlanStats is the wire form of the controller's plan-reuse counters.
type PlanStats struct {
	Full        int `json:"full"`
	Incremental int `json:"incremental"`
	Replayed    int `json:"replayed"`
	// LastMode is "full", "incremental" or "replayed".
	LastMode           string  `json:"lastMode"`
	LastDemandDeltaMHz float64 `json:"lastDemandDeltaMHz"`
}

// PlanRequest is the body of POST /v1/plan. Exactly one of Snapshot
// (a full monitoring snapshot) and Delta (a patch against the
// session's retained state) must be set.
type PlanRequest struct {
	SchemaVersion int            `json:"schemaVersion"`
	ClusterID     string         `json:"clusterId,omitempty"`
	Snapshot      *Snapshot      `json:"snapshot,omitempty"`
	Delta         *SnapshotDelta `json:"delta,omitempty"`
	// Reply selects the response shape: "full" (default) embeds the
	// whole plan; "delta" omits it and returns only the typed action
	// delta against the session's previous plan plus diagnostics.
	Reply string `json:"reply,omitempty"`
	// Shards hints how many partitions the cluster's session should
	// plan concurrently (sharded planning for very large clusters).
	// It only takes effect on the request that creates the session;
	// 0 or 1 means unsharded. Bounded by MaxShards.
	Shards int `json:"shards,omitempty"`
	// Forecast, when set, asks the cluster's session to plan against
	// predicted rather than observed transactional demand. Like Shards
	// it only takes effect on the request that creates the session;
	// later requests may omit it (or repeat it — it is ignored either
	// way).
	Forecast *ForecastConfig `json:"forecast,omitempty"`
}

// MaxShards bounds the PlanRequest.Shards hint (a shard needs at least
// a handful of nodes to be worth planning separately; values beyond
// this are certainly client bugs).
const MaxShards = 4096

// Reply values for PlanRequest.
const (
	ReplyFull  = "full"
	ReplyDelta = "delta"
)

// SnapshotDelta patches the session's retained snapshot instead of
// re-sending it wholesale — the steady-state fast path of the wire
// protocol. BaseCycle must equal the session's current cycle count (as
// returned in the previous PlanResponse); a mismatch is rejected so a
// lost update cannot silently corrupt the session's view.
type SnapshotDelta struct {
	BaseCycle int     `json:"baseCycle"`
	Now       float64 `json:"now"`
	// Nodes, when non-nil, replaces the node list wholesale.
	Nodes []Node `json:"nodes,omitempty"`
	// UpsertJobs replaces jobs in place by ID (preserving snapshot
	// order) and appends new ones; RemoveJobs deletes by ID
	// (completed or canceled jobs).
	UpsertJobs []Job    `json:"upsertJobs,omitempty"`
	RemoveJobs []string `json:"removeJobs,omitempty"`
	UpsertApps []App    `json:"upsertApps,omitempty"`
	RemoveApps []string `json:"removeApps,omitempty"`
}

// PlanResponse is the body of a successful POST /v1/plan.
type PlanResponse struct {
	SchemaVersion int    `json:"schemaVersion"`
	ClusterID     string `json:"clusterId"`
	// Cycle counts the session's plans; feed it back as
	// SnapshotDelta.BaseCycle on the next delta request.
	Cycle int `json:"cycle"`
	// PlanMode says how this plan was produced ("full", "incremental",
	// "replayed"); empty when the controller does not report reuse.
	PlanMode string `json:"planMode,omitempty"`
	// Stats carries the session's cumulative reuse counters when the
	// controller reports them.
	Stats *PlanStats `json:"stats,omitempty"`
	// Plan is the full plan; omitted when the request asked for a
	// delta reply.
	Plan *Plan `json:"plan,omitempty"`
	// Delta is the typed action list from the session's previous
	// plan's placement to this one. On a session's first cycle it is
	// the bootstrap delta against the empty placement (every running
	// job a start, every instance an add).
	Delta []Action `json:"delta,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	SchemaVersion int            `json:"schemaVersion"`
	Sessions      []SessionStats `json:"sessions"`
}

// SessionStats summarizes one hosted session.
type SessionStats struct {
	ClusterID  string `json:"clusterId"`
	Controller string `json:"controller"`
	Cycles     int    `json:"cycles"`
	// Shards is the session's partition count when it plans sharded
	// (omitted for unsharded sessions).
	Shards int `json:"shards,omitempty"`
	// EffectiveShards is the partition count the last snapshot actually
	// supported (never above its node count); ShardLoadSpread the last
	// partition's max/min shard demand ratio; Reshards the number of
	// cycles so far whose partition migrated node blocks between shards.
	// All omitted for unsharded sessions.
	EffectiveShards int        `json:"effectiveShards,omitempty"`
	ShardLoadSpread float64    `json:"shardLoadSpread,omitempty"`
	Reshards        int        `json:"reshards,omitempty"`
	Stats           *PlanStats `json:"stats,omitempty"`
	// ForecastPredictor names the session's demand predictor when
	// forecasting is enabled (omitted for reactive sessions).
	ForecastPredictor string `json:"forecastPredictor,omitempty"`
}

// HealthResponse is the body of GET /v1/healthz — liveness: a daemon
// that can answer it is alive, whatever its readiness.
type HealthResponse struct {
	Status        string `json:"status"`
	SchemaVersion int    `json:"schemaVersion"`
	Sessions      int    `json:"sessions"`
	// ReplicaID identifies the daemon in a replicated deployment
	// (empty for a standalone daemon).
	ReplicaID string `json:"replicaId,omitempty"`
}

// Readiness status strings for ReadyResponse.Status.
const (
	ReadyStatusReady = "ready"
	// ReadyStatusRestoring: the daemon is still scanning its state dir
	// for sessions to restore; routing traffic to it would cold-start
	// sessions another replica may still own.
	ReadyStatusRestoring = "restoring"
	// ReadyStatusDraining: the daemon received a shutdown signal and is
	// handing its sessions to peers; route new work elsewhere.
	ReadyStatusDraining = "draining"
)

// ReadyResponse is the body of GET /v1/readyz — readiness, distinct
// from liveness: the endpoint answers 200 only when the daemon should
// receive new traffic. While restoring or draining it answers 503 with
// the same body, so load balancers and the replica coordinator can
// tell "do not route here" from "dead".
type ReadyResponse struct {
	// Status is one of the ReadyStatus strings.
	Status        string `json:"status"`
	SchemaVersion int    `json:"schemaVersion"`
	Sessions      int    `json:"sessions"`
	ReplicaID     string `json:"replicaId,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx daemon response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Owner, on a 421 (misdirected request), names the replica that
	// holds the cluster's ownership claim — a client that recognizes it
	// as an address can go straight there instead of rediscovering the
	// home through the ring.
	Owner string `json:"owner,omitempty"`
}

// ReplicaStatus is one replica's view from the coordinator.
type ReplicaStatus struct {
	Addr string `json:"addr"`
	// Ready means the last probe (or forward) succeeded and the replica
	// accepts new traffic; Draining means it answered readyz with a
	// draining status and is handing sessions off.
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining,omitempty"`
	LastErr  string `json:"lastErr,omitempty"`
}

// ReplicasResponse is the body of the coordinator's GET /v1/replicas.
type ReplicasResponse struct {
	SchemaVersion int             `json:"schemaVersion"`
	Replicas      []ReplicaStatus `json:"replicas"`
}

// CheckVersion validates a document's schemaVersion against what this
// package speaks.
func CheckVersion(v int) error {
	if v < 1 {
		return fmt.Errorf("api: missing or invalid schemaVersion %d (this build speaks %d)", v, SchemaVersion)
	}
	if v > SchemaVersion {
		return fmt.Errorf("api: schemaVersion %d is newer than this build speaks (%d)", v, SchemaVersion)
	}
	return nil
}

// finite reports whether v is a usable finite number.
func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// Validate reports wire-level snapshot errors: version, duplicate or
// empty IDs, unknown state strings, non-finite or negative quantities.
func (s *Snapshot) Validate() error {
	if err := CheckVersion(s.SchemaVersion); err != nil {
		return err
	}
	if !finite(s.Now) {
		return fmt.Errorf("api: non-finite now %v", s.Now)
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("api: snapshot has no nodes")
	}
	seen, _ := idSets.Get().(map[string]struct{})
	if seen == nil {
		seen = make(map[string]struct{}, max(len(s.Nodes), len(s.Jobs), len(s.Apps)))
	}
	defer func() {
		clear(seen)
		idSets.Put(seen)
	}()
	for i, n := range s.Nodes {
		if n.ID == "" {
			return fmt.Errorf("api: node %d has empty id", i)
		}
		if _, dup := seen[n.ID]; dup {
			return fmt.Errorf("api: duplicate node %q", n.ID)
		}
		seen[n.ID] = struct{}{}
		if !finite(n.CPUMHz) || n.CPUMHz <= 0 {
			return fmt.Errorf("api: node %q cpuMHz %v", n.ID, n.CPUMHz)
		}
		if n.MemMB <= 0 {
			return fmt.Errorf("api: node %q memMB %d", n.ID, n.MemMB)
		}
	}
	clear(seen)
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if _, dup := seen[j.ID]; dup && j.ID != "" {
			return fmt.Errorf("api: duplicate job %q", j.ID)
		}
		seen[j.ID] = struct{}{}
		if err := j.validate(i); err != nil {
			return err
		}
	}
	clear(seen)
	for i := range s.Apps {
		a := &s.Apps[i]
		if _, dup := seen[a.ID]; dup && a.ID != "" {
			return fmt.Errorf("api: duplicate app %q", a.ID)
		}
		seen[a.ID] = struct{}{}
		if err := a.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// idSets recycles the ID sets Validate detects duplicates with, across
// requests and sessions; a set is emptied before it goes back. One the
// pool does not have is made at the snapshot's size, as growing it
// entry by entry would rehash it several times.
var idSets sync.Pool

// validate checks one job's own fields — everything Validate checks of
// a job except that its ID is unique. i is its position, for the error
// that cannot name it.
func (j *Job) validate(i int) error {
	if j.ID == "" {
		return fmt.Errorf("api: job %d has empty id", i)
	}
	switch j.State {
	case JobPending, JobSuspended:
		if j.Node != "" {
			return fmt.Errorf("api: %s job %q names a node", j.State, j.ID)
		}
	case JobRunning:
		if j.Node == "" {
			return fmt.Errorf("api: running job %q has no node", j.ID)
		}
	default:
		return fmt.Errorf("api: job %q unknown state %q", j.ID, j.State)
	}
	if !finite(j.RemainingMHzs) || j.RemainingMHzs <= 0 {
		return fmt.Errorf("api: job %q remainingMHzs %v", j.ID, j.RemainingMHzs)
	}
	if !finite(j.MaxSpeedMHz) || j.MaxSpeedMHz <= 0 {
		return fmt.Errorf("api: job %q maxSpeedMHz %v", j.ID, j.MaxSpeedMHz)
	}
	if j.MemMB < 0 {
		return fmt.Errorf("api: job %q memMB %d", j.ID, j.MemMB)
	}
	if !finite(j.ShareMHz) || j.ShareMHz < 0 {
		return fmt.Errorf("api: job %q shareMHz %v", j.ID, j.ShareMHz)
	}
	if !finite(j.GoalSec) || !finite(j.SubmittedSec) {
		return fmt.Errorf("api: job %q non-finite goal/submitted", j.ID)
	}
	if err := j.Utility.validate(); err != nil {
		return fmt.Errorf("api: job %q: %w", j.ID, err)
	}
	return nil
}

// validate checks one application's own fields — everything Validate
// checks of an app except that its ID is unique.
func (a *App) validate(i int) error {
	if a.ID == "" {
		return fmt.Errorf("api: app %d has empty id", i)
	}
	if !finite(a.Lambda) || a.Lambda < 0 {
		return fmt.Errorf("api: app %q lambda %v", a.ID, a.Lambda)
	}
	if !finite(a.RTGoalSec) || a.RTGoalSec <= 0 {
		return fmt.Errorf("api: app %q rtGoalSec %v", a.ID, a.RTGoalSec)
	}
	if err := a.Model.validate(); err != nil {
		return fmt.Errorf("api: app %q: %w", a.ID, err)
	}
	if err := a.Utility.validate(); err != nil {
		return fmt.Errorf("api: app %q: %w", a.ID, err)
	}
	if a.InstanceMemMB < 0 {
		return fmt.Errorf("api: app %q instanceMemMB %d", a.ID, a.InstanceMemMB)
	}
	if !finite(a.MaxPerInstanceMHz) || a.MaxPerInstanceMHz < 0 {
		return fmt.Errorf("api: app %q maxPerInstanceMHz %v", a.ID, a.MaxPerInstanceMHz)
	}
	if a.MinInstances < 0 || a.MaxInstances < 0 {
		return fmt.Errorf("api: app %q negative instance bounds", a.ID)
	}
	if math.IsNaN(float64(a.MeasuredRTSec)) || a.MeasuredRTSec < 0 {
		return fmt.Errorf("api: app %q measuredRTSec %v", a.ID, float64(a.MeasuredRTSec))
	}
	seen := make(map[string]bool, len(a.Instances))
	for _, inst := range a.Instances {
		if inst.Node == "" || seen[inst.Node] {
			return fmt.Errorf("api: app %q empty or duplicate instance node %q", a.ID, inst.Node)
		}
		seen[inst.Node] = true
		if !finite(inst.ShareMHz) || inst.ShareMHz < 0 {
			return fmt.Errorf("api: app %q instance on %q shareMHz %v", a.ID, inst.Node, inst.ShareMHz)
		}
	}
	return nil
}

// validate reports wire-level model errors.
func (m Model) validate() error {
	switch m.Type {
	case ModelMG1PS, ModelMMc:
		if !finite(m.CoreSpeedMHz) || m.CoreSpeedMHz <= 0 {
			return fmt.Errorf("model %q coreSpeedMHz %v", m.Type, m.CoreSpeedMHz)
		}
	case ModelMM1:
	default:
		return fmt.Errorf("unknown model type %q", m.Type)
	}
	if !finite(m.DemandMHzs) || m.DemandMHzs <= 0 {
		return fmt.Errorf("model %q demandMHzs %v", m.Type, m.DemandMHzs)
	}
	return nil
}

// validate reports wire-level utility-function errors. A nil receiver
// (the default function) is valid.
func (u *UtilityFn) validate() error {
	if u == nil {
		return nil
	}
	switch u.Type {
	case FnLinear:
		if !finite(u.Floor) || u.Floor >= 1 {
			return fmt.Errorf("linear utility floor %v", u.Floor)
		}
	case FnSigmoid:
		if !finite(u.K) || u.K <= 0 {
			return fmt.Errorf("sigmoid utility k %v", u.K)
		}
	case FnPiecewise:
		if len(u.Points) < 2 {
			return fmt.Errorf("piecewise utility needs >= 2 points, got %d", len(u.Points))
		}
		for _, p := range u.Points {
			if !finite(p.P) || !finite(p.U) {
				return fmt.Errorf("piecewise utility non-finite point %+v", p)
			}
		}
	default:
		return fmt.Errorf("unknown utility type %q", u.Type)
	}
	return nil
}
