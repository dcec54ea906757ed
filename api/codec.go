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
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
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

// decode unmarshals one JSON document from r into v. Unknown fields
// are tolerated by design: an older build must interoperate with a
// peer that has grown additive fields.
func decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("api: decode: %w", err)
	}
	return nil
}

// encode marshals v to w as one JSON document with a trailing newline.
func encode(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("api: encode: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// DecodeSnapshot reads, version-checks and validates one snapshot.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := decode(r, &s); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// EncodeSnapshot writes one snapshot, stamping the schema version if
// the caller left it zero.
func EncodeSnapshot(w io.Writer, s *Snapshot) error {
	if s.SchemaVersion == 0 {
		s.SchemaVersion = SchemaVersion
	}
	return encode(w, s)
}

// DecodePlan reads and version-checks one plan.
func DecodePlan(r io.Reader) (*Plan, error) {
	var p Plan
	if err := decode(r, &p); err != nil {
		return nil, err
	}
	if err := CheckVersion(p.SchemaVersion); err != nil {
		return nil, err
	}
	return &p, nil
}

// EncodePlan writes one plan, stamping the schema version if the
// caller left it zero.
func EncodePlan(w io.Writer, p *Plan) error {
	if p.SchemaVersion == 0 {
		p.SchemaVersion = SchemaVersion
	}
	return encode(w, p)
}

// DecodePlanRequest reads, version-checks and shape-checks one plan
// request. The embedded snapshot or delta is NOT content-validated
// here: the session validates it once when consuming it (a 500-node /
// 5000-job snapshot's validation walk is hot-path work worth doing
// exactly once).
func DecodePlanRequest(r io.Reader) (*PlanRequest, error) {
	var req PlanRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if err := req.checkShape(); err != nil {
		return nil, err
	}
	return &req, nil
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
	return encode(w, req)
}

// DecodePlanResponse reads and version-checks one plan response.
func DecodePlanResponse(r io.Reader) (*PlanResponse, error) {
	var resp PlanResponse
	if err := decode(r, &resp); err != nil {
		return nil, err
	}
	if err := CheckVersion(resp.SchemaVersion); err != nil {
		return nil, err
	}
	return &resp, nil
}
