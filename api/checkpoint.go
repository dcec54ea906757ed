package api

import (
	"fmt"
	"io"
)

// Checkpoint is the durable wire form of one planning session: the
// minimal state a daemon needs to rebuild the session's controller —
// incremental tiers included — on another process or after a crash.
//
// The controller's in-memory machinery (node ledgers, reuse tiers) is deliberately NOT serialized: every controller is a
// deterministic function of the snapshot sequence it has planned, so
// replaying the last applied snapshot through a fresh controller
// reproduces both the last plan and the warm incremental state,
// byte for byte. What cannot be recomputed from one snapshot is
// carried explicitly: the session's cycle counter and time watermark,
// the previous wire plan (the base of response deltas), and — for
// sharded sessions — the history-dependent partition boundaries.
type Checkpoint struct {
	SchemaVersion int    `json:"schemaVersion"`
	ClusterID     string `json:"clusterId"`
	// Controller names the controller that produced the state. A
	// restore refuses a checkpoint whose controller does not match the
	// restoring daemon's configuration — silently replanning someone
	// else's state would corrupt the cluster.
	Controller string `json:"controller,omitempty"`
	// Cycle is the session's plan count; HasNow/LastNowSec its
	// monotonic-time watermark.
	Cycle      int     `json:"cycle"`
	HasNow     bool    `json:"hasNow,omitempty"`
	LastNowSec float64 `json:"lastNowSec,omitempty"`
	// Shards is the session's configured partition count (0 or 1 means
	// unsharded); ShardBounds/ShardReshards the sharded partitioner's
	// persistent boundary state (shard i owns node indexes
	// [bounds[i], bounds[i+1]) of the snapshot's node list).
	Shards        int   `json:"shards,omitempty"`
	ShardBounds   []int `json:"shardBounds,omitempty"`
	ShardReshards int   `json:"shardReshards,omitempty"`
	// Snapshot is the last snapshot the session planned; Plan the plan
	// it produced for it. Both are nil for a session that has not
	// planned yet (Cycle 0).
	Snapshot *Snapshot `json:"snapshot,omitempty"`
	Plan     *Plan     `json:"plan,omitempty"`
	// Forecast is the session's demand-forecasting state (nil when
	// forecasting is disabled). The snapshot above holds *observed*
	// demand, so a restore re-runs the checkpointed cycle's forecasts
	// from this state and reproduces the checkpointed plan.
	Forecast *ForecastState `json:"forecast,omitempty"`
}

// Validate reports wire-level checkpoint errors.
func (c *Checkpoint) Validate() error {
	if err := CheckVersion(c.SchemaVersion); err != nil {
		return err
	}
	if c.Cycle < 0 {
		return fmt.Errorf("api: checkpoint cycle %d", c.Cycle)
	}
	if c.Shards < 0 || c.Shards > MaxShards {
		return fmt.Errorf("api: checkpoint shards %d outside [0, %d]", c.Shards, MaxShards)
	}
	if c.HasNow && !finite(c.LastNowSec) {
		return fmt.Errorf("api: checkpoint non-finite lastNowSec %v", c.LastNowSec)
	}
	if (c.Snapshot == nil) != (c.Plan == nil) {
		return fmt.Errorf("api: checkpoint carries snapshot without plan (or vice versa)")
	}
	if c.Cycle > 0 && c.Snapshot == nil {
		return fmt.Errorf("api: checkpoint at cycle %d has no snapshot", c.Cycle)
	}
	if c.Snapshot != nil {
		if err := c.Snapshot.Validate(); err != nil {
			return fmt.Errorf("api: checkpoint snapshot: %w", err)
		}
	}
	if c.Plan != nil {
		if err := CheckVersion(c.Plan.SchemaVersion); err != nil {
			return fmt.Errorf("api: checkpoint plan: %w", err)
		}
	}
	for i, b := range c.ShardBounds {
		if b < 0 {
			return fmt.Errorf("api: checkpoint shard bound %d is negative", i)
		}
		if i > 0 && b < c.ShardBounds[i-1] {
			return fmt.Errorf("api: checkpoint shard bounds not monotonic at %d", i)
		}
	}
	if c.Forecast != nil {
		if err := c.Forecast.Validate(); err != nil {
			return fmt.Errorf("api: checkpoint: %w", err)
		}
	}
	return nil
}

// DecodeCheckpoint reads, version-checks and validates one checkpoint.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	return decodeJSON(r, binCheckpoint, (*Checkpoint).Validate)
}

// EncodeCheckpoint writes one checkpoint, stamping schema versions
// left zero.
func EncodeCheckpoint(w io.Writer, c *Checkpoint) error {
	if c.SchemaVersion == 0 {
		c.SchemaVersion = SchemaVersion
	}
	if c.Snapshot != nil && c.Snapshot.SchemaVersion == 0 {
		c.Snapshot.SchemaVersion = SchemaVersion
	}
	if c.Plan != nil && c.Plan.SchemaVersion == 0 {
		c.Plan.SchemaVersion = SchemaVersion
	}
	return encodeJSON(newJSONWriter(w), c, binCheckpoint)
}
