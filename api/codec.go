package api

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Float is a float64 that survives JSON round trips even at ±Inf and
// NaN, which encoding/json rejects outright. Non-finite values are
// encoded as the quoted strings "+Inf", "-Inf" and "NaN"; finite
// values are encoded as plain JSON numbers (shortest exact form, so a
// decode recovers the identical bit pattern). Decoding accepts both
// forms, quoted or bare.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) { return f.appendJSON(nil), nil }

// appendJSON appends f's JSON form to b.
func (f Float) appendJSON(b []byte) []byte {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		case "NaN":
			*f = Float(math.NaN())
		default:
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("api: float string %q: %w", s, err)
			}
			*f = Float(v)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// decode unmarshals one JSON document from r into v with
// encoding/json: the JSON decoders' path for documents outside the
// canonical subset the walks read (see json.go). Unknown fields are
// tolerated by design: an older build must interoperate with a peer
// that has grown additive fields.
func decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("api: decode: %w", err)
	}
	return nil
}

// DecodeSnapshot reads, version-checks and validates one snapshot.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	return decodeJSON(r, binSnapshot, (*Snapshot).Validate)
}

// EncodeSnapshot writes one snapshot, stamping the schema version if
// the caller left it zero.
func EncodeSnapshot(w io.Writer, s *Snapshot) error {
	if s.SchemaVersion == 0 {
		s.SchemaVersion = SchemaVersion
	}
	return encodeJSON(newJSONWriter(w), s, binSnapshot)
}

// DecodePlan reads and version-checks one plan.
func DecodePlan(r io.Reader) (*Plan, error) {
	return decodeJSON(r, binPlan, func(p *Plan) error { return CheckVersion(p.SchemaVersion) })
}

// EncodePlan writes one plan, stamping the schema version if the
// caller left it zero.
func EncodePlan(w io.Writer, p *Plan) error {
	if p.SchemaVersion == 0 {
		p.SchemaVersion = SchemaVersion
	}
	return encodeJSON(newJSONWriter(w), p, binPlan)
}

// DecodePlanRequest reads, version-checks and shape-checks one plan
// request. The embedded snapshot or delta is NOT content-validated
// here: the session validates it once when consuming it (a 500-node /
// 5000-job snapshot's validation walk is hot-path work worth doing
// exactly once).
func DecodePlanRequest(r io.Reader) (*PlanRequest, error) {
	return decodeJSON(r, binPlanRequest, (*PlanRequest).checkShape)
}

// checkShape version-checks a decoded plan request and checks its
// shape: exactly one of snapshot and delta, a known reply mode, shards
// in range and a valid forecast hint. Both codecs' decoders apply it.
func (req *PlanRequest) checkShape() error {
	if err := CheckVersion(req.SchemaVersion); err != nil {
		return err
	}
	if (req.Snapshot == nil) == (req.Delta == nil) {
		return fmt.Errorf("api: plan request needs exactly one of snapshot and delta")
	}
	switch req.Reply {
	case "", ReplyFull, ReplyDelta:
	default:
		return fmt.Errorf("api: unknown reply mode %q", req.Reply)
	}
	if req.Shards < 0 || req.Shards > MaxShards {
		return fmt.Errorf("api: shards %d outside [0, %d]", req.Shards, MaxShards)
	}
	if req.Forecast != nil {
		return req.Forecast.Validate()
	}
	return nil
}

// EncodePlanRequest writes one plan request, stamping schema versions
// left zero.
func EncodePlanRequest(w io.Writer, req *PlanRequest) error {
	if req.SchemaVersion == 0 {
		req.SchemaVersion = SchemaVersion
	}
	if req.Snapshot != nil && req.Snapshot.SchemaVersion == 0 {
		req.Snapshot.SchemaVersion = SchemaVersion
	}
	return encodeJSON(newJSONWriter(w), req, binPlanRequest)
}

// DecodePlanResponse reads and version-checks one plan response.
func DecodePlanResponse(r io.Reader) (*PlanResponse, error) {
	return decodeJSON(r, binPlanResponse, func(r *PlanResponse) error { return CheckVersion(r.SchemaVersion) })
}

// EncodePlanResponse writes one plan response, stamping schema
// versions left zero.
func EncodePlanResponse(w io.Writer, resp *PlanResponse) error {
	if resp.SchemaVersion == 0 {
		resp.SchemaVersion = SchemaVersion
	}
	if resp.Plan != nil && resp.Plan.SchemaVersion == 0 {
		resp.Plan.SchemaVersion = SchemaVersion
	}
	return encodeJSON(newJSONWriter(w), resp, binPlanResponse)
}
