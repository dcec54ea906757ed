package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// encode marshals v to w with encoding/json as one JSON document with
// a trailing newline: the bytes the JSON encoders must write.
func encode(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("api: encode: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// jsonKind is one document type's JSON codecs: the public decoder and
// encoder, which go through the walk, and the oracle — encoding/json
// with the same checks the public decoder applies after decoding.
type jsonKind struct {
	name       string
	newDoc     func() any
	fromBinary func(io.Reader) (any, error)
	decode     func(io.Reader) (any, error)
	oracle     func(io.Reader) (any, error)
	encode     func(io.Writer, any) error
	// read is the walk's reader alone: false when it left the
	// canonical subset. write is the walk's writer with a given spill.
	read  func([]byte) (any, bool)
	write func(io.Writer, int, any) error
}

func kindOf[T any](name string, walk func(*binCodec, *T), fromBinary, dec func(io.Reader) (*T, error),
	check func(*T) error, enc func(io.Writer, *T) error) jsonKind {
	return jsonKind{
		name:       name,
		newDoc:     func() any { return new(T) },
		fromBinary: func(r io.Reader) (any, error) { return fromBinary(r) },
		decode: func(r io.Reader) (any, error) {
			doc, err := dec(r)
			if err != nil {
				return nil, err
			}
			return doc, nil
		},
		oracle: func(r io.Reader) (any, error) {
			doc := new(T)
			if err := decode(r, doc); err != nil {
				return nil, err
			}
			if err := check(doc); err != nil {
				return nil, err
			}
			return doc, nil
		},
		encode: func(w io.Writer, doc any) error { return enc(w, doc.(*T)) },
		read: func(data []byte) (any, bool) {
			return readJSON(new(jsonReader), data, walk)
		},
		write: func(sink io.Writer, spill int, doc any) error {
			w := newJSONWriter(sink)
			w.spill = spill
			return encodeJSON(w, doc.(*T), walk)
		},
	}
}

var jsonKinds = map[byte]jsonKind{
	binKindSnapshot: kindOf("snapshot", binSnapshot, DecodeSnapshotBinary, DecodeSnapshot,
		(*Snapshot).Validate, EncodeSnapshot),
	binKindPlan: kindOf("plan", binPlan, DecodePlanBinary, DecodePlan,
		func(p *Plan) error { return CheckVersion(p.SchemaVersion) }, EncodePlan),
	binKindPlanRequest: kindOf("planRequest", binPlanRequest, DecodePlanRequestBinary, DecodePlanRequest,
		(*PlanRequest).checkShape, EncodePlanRequest),
	binKindPlanResponse: kindOf("planResponse", binPlanResponse, DecodePlanResponseBinary, DecodePlanResponse,
		func(r *PlanResponse) error { return CheckVersion(r.SchemaVersion) }, EncodePlanResponse),
	binKindCheckpoint: kindOf("checkpoint", binCheckpoint, DecodeCheckpointBinary, DecodeCheckpoint,
		(*Checkpoint).Validate, EncodeCheckpoint),
}

// sameDoc is reflect.DeepEqual with floats compared by bit pattern, so
// a NaN equals itself and -0 differs from 0.
func sameDoc(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameDoc(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameDoc(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() || !sameDoc(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameDoc(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// checkJSONAgainstOracle decodes doc with a kind's public decoder and
// with encoding/json: both must reject it with the same error or accept
// the same document, and an accepted document must re-encode to
// json.Marshal's bytes.
func checkJSONAgainstOracle(t *testing.T, k jsonKind, doc string) {
	t.Helper()
	got, err := k.decode(strings.NewReader(doc))
	want, wantErr := k.oracle(strings.NewReader(doc))
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s: decoded with error %v, encoding/json %v\n%q", k.name, err, wantErr, doc)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, encoding/json %q\n%q", k.name, err, wantErr, doc)
		}
		return
	case !sameDoc(reflect.ValueOf(got), reflect.ValueOf(want)):
		t.Fatalf("%s: decoded\n%#v\nencoding/json\n%#v\n%q", k.name, got, want, doc)
	}
	var walked, marshaled bytes.Buffer
	err = k.encode(&walked, got) // stamps versions left zero, in place
	wantErr = encode(&marshaled, got)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(walked.Bytes(), marshaled.Bytes()) {
		t.Fatalf("%s: encoded (%v)\n%s\njson.Marshal (%v)\n%s", k.name, err, walked.Bytes(), wantErr, marshaled.Bytes())
	}
}

// jsonSeeds are documents at the edges of the canonical subset: what
// the walks read themselves and what they must leave to encoding/json.
var jsonSeeds = []string{
	`{"schemaVersion":1,"now":0,"nodes":[{"id":"n1","cpuMHz":1000,"memMB":1000}]}`,
	`{"schemaVersion": 1, "now": 100, "futureTopLevel": {"a": [1, "x", null, true]},
	  "nodes": [{"id": "n1", "cpuMHz": 1000, "memMB": 1000, "futureNodeField": true}],
	  "jobs": [{"id": "j1", "state": "pending", "remainingMHzs": 10, "maxSpeedMHz": 10,
	  "memMB": 1, "goalSec": 5, "submittedSec": 0, "futureJobField": "x"}]}`,
	// Case-folded, duplicate and escaped keys and strings, non-ASCII.
	`{"schemaVersion":1,"ClusterID":"c","snapshot":{"schemaVersion":1,"now":0,"nodes":[{"id":"n1","cpuMHz":1000,"memMB":1000}]}}`,
	`{"schemaVersion":1,"clusterId":"a","clusterId":"b","delta":{"baseCycle":1,"now":2}}`,
	`{"schemaVersion":1,"now":0,"nodes":[{"id":"n1","cpuMHz":1000,"memMB":1000,"ID":"n2"}]}`,
	`{"schemaVersion":1,"clusterId":"\u0063","delta":{"baseCycle":1,"now":2}}`,
	`{"schemaVersion":1,"clusterId":"c\"","delta":{"baseCycle":1,"now":2}}`,
	`{"schemaVersion":1,"clusterId":"é<&>","delta":{"baseCycle":1,"now":2}}`,
	`{"schemaVersion":1,"clusterId":"c","delta":{"baseCycle":1,"now":2},"x":"\ud800"}`,
	// Trailing bytes after the object.
	`{"schemaVersion":1,"delta":{"baseCycle":1,"now":2}}garbage`,
	`{"schemaVersion":1,"delta":{"baseCycle":1,"now":2}} {}`,
	"{\"schemaVersion\":1,\"delta\":{\"baseCycle\":1,\"now\":2}}\n\t ",
	// Numbers that do not fit their field.
	`{"schemaVersion":1e400,"delta":{"baseCycle":1,"now":2}}`,
	`{"schemaVersion":1,"delta":{"baseCycle":1,"now":1e400}}`,
	`{"schemaVersion":1.0,"delta":{"baseCycle":1,"now":-0}}`,
	`{"schemaVersion":1,"delta":{"baseCycle":99999999999999999999,"now":2}}`,
	`{"schemaVersion":1,"delta":{"baseCycle":-0,"now":1.5e-7,"removeJobs":["a",null]}}`,
	`{"schemaVersion":1,"delta":{"baseCycle":1,"now":12345678901234567890}}`,
	// Number text the grammar rejects, in a field and in an unknown member.
	`{"schemaVersion":1,"delta":{"baseCycle":1,"now":1-2}}`,
	`{"schemaVersion":1,"delta":{"baseCycle":1,"now":1.2.3}}`,
	`{"":{"":[{"":[0-]}]}}`,
	`{"schemaVersion":1,"x":[1.5-3],"delta":{"baseCycle":1,"now":2}}`,
	// A delta's nodes: empty, null or absent.
	`{"schemaVersion":1,"delta":{"baseCycle":1,"now":2,"nodes":[]}}`,
	`{"schemaVersion":1,"delta":{"baseCycle":1,"now":2,"nodes":null}}`,
	`{"schemaVersion":1,"delta":{"baseCycle":1,"now":2}}`,
	// Nulls, wrong types, Floats in quotes, maps with a key twice.
	`{"schemaVersion":1,"snapshot":null,"delta":{"baseCycle":1,"now":2,"upsertJobs":null}}`,
	`{"schemaVersion":1,"delta":{"baseCycle":"1","now":2}}`,
	`{"schemaVersion":1,"plan":{"schemaVersion":1,"placement":{},"diagnostics":{"equalizedUtility":"NaN",` +
		`"hypotheticalJobUtility":"-Inf","jobDemandMHz":"1.5","jobTargetMHz":null,` +
		`"appPrediction":{"b":1,"a":2,"b":3}}},"clusterId":"c","cycle":1}`,
	`{"schemaVersion":1,"clusterId":"c","cycle":1,"plan":{"schemaVersion":1,"placement":null,` +
		`"diagnostics":{"equalizedUtility":"Inf","hypotheticalJobUtility":0,"jobDemandMHz":0,"jobTargetMHz":0,"appDemandMHz":{}}}}`,
	`{"schemaVersion":1,"now":1,"nodes":[{"id":"n","cpuMHz":1,"memMB":1}],` +
		`"apps":[{"id":"a","lambda":5,"rtGoalSec":2,` +
		`"model":{"type":"mg1ps","demandMHzs":10,"coreSpeedMHz":100},` +
		`"utility":{"type":"sigmoid","k":4},"instanceMemMB":10,"maxPerInstanceMHz":50,` +
		`"instances":[{"node":"n","shareMHz":3}],"measuredRTSec":"+Inf"}]}`,
	`{"schemaVersion":1,"clusterId":"c","cycle":0,"forecast":{"config":{"correctionAlpha":0},` +
		`"apps":[{"id":"a","history":[1,2.5,3e-9]}]},"shardBounds":[0,2,1]}`,
	`{"schemaVersion":1,"delta":{"baseCycle":1,"now":2},"forecast":{"predictor":"holt","correctionAlpha":null}}`,
	`{"schemaVersion":2,"now":0}`,
	`{"unknown":true}`,
	`{}`,
	`null`,
	`[]`,
	``,
	`not json at all`,
	`{"schemaVersion":1,"now":0,"nodes":[{"id":"n1","cpuMHz":1000,"memMB":1000}`,
	`{"schemaVersion":1,"now":0,"nodes":[{"id":"n1","cpuMHz":1000,"memMB":1000},]}`,
}

// goldenJSON renders the committed golden binary documents as JSON,
// by kind.
func goldenJSON(t testing.TB) map[string]byte {
	golden, err := filepath.Glob(filepath.Join("testdata", "golden", "*.bin"))
	if err != nil || len(golden) == 0 {
		t.Fatalf("no golden binary documents: %v", err)
	}
	docs := make(map[string]byte)
	for _, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := jsonKinds[data[5]].fromBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var js bytes.Buffer
		if err := encode(&js, doc); err != nil {
			t.Fatal(err)
		}
		docs[js.String()] = data[5]
	}
	return docs
}

// FuzzJSONDifferential holds every JSON decoder to encoding/json on
// arbitrary text: the same error text or a bit-identical document, and
// json.Marshal's bytes when that document is encoded again. Documents
// inside the canonical subset take the walks' reader, the rest
// encoding/json's; the outcome must not tell which.
func FuzzJSONDifferential(f *testing.F) {
	for doc := range goldenJSON(f) {
		f.Add(doc)
	}
	for _, doc := range jsonSeeds {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		for _, k := range jsonKinds {
			checkJSONAgainstOracle(t, k, doc)
		}
	})
}

// TestJSONGoldenFastPath: the golden documents as json.Marshal renders
// them are inside the canonical subset — the walks read them without
// encoding/json, to the document encoding/json reads.
func TestJSONGoldenFastPath(t *testing.T) {
	for doc, kind := range goldenJSON(t) {
		k := jsonKinds[kind]
		got, ok := k.read([]byte(doc))
		if !ok {
			t.Errorf("%s: left to encoding/json", k.name)
			continue
		}
		want := k.newDoc()
		if err := decode(strings.NewReader(doc), want); err != nil {
			t.Fatal(err)
		}
		if !sameDoc(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("%s: walked\n%#v\nencoding/json\n%#v", k.name, got, want)
		}
	}
}

// fillDoc sets every field of v through reflection: scalars to distinct
// non-zero values when full (and left zero otherwise), every pointer to
// a filled value, every slice to two filled elements, every map to two
// entries. seq numbers the values.
func fillDoc(v reflect.Value, full bool, seq *int) {
	*seq++
	n := *seq
	switch v.Kind() {
	case reflect.String:
		if full {
			v.SetString(fmt.Sprintf("s%d", n))
		}
	case reflect.Float64:
		if full {
			v.SetFloat(float64(n) + 0.25)
		}
	case reflect.Int, reflect.Int64:
		if full {
			v.SetInt(int64(n))
		}
	case reflect.Bool:
		v.SetBool(full)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDoc(v.Elem(), full, seq)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillDoc(v.Index(i), full, seq)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			e := reflect.New(v.Type().Elem()).Elem()
			fillDoc(e, full, seq)
			v.SetMapIndex(reflect.ValueOf(fmt.Sprintf("k%d", n+i)), e)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDoc(v.Field(i), full, seq)
		}
	default:
		panic("fillDoc: unhandled kind " + v.Kind().String())
	}
}

// TestJSONWalksMatchStructTags pins every walk's JSON names and
// omitempty flags to the struct tags encoding/json reads. Each document
// type is filled through reflection twice — every scalar non-zero, then
// every scalar zero with every pointer, list and map still populated —
// and the walk's writer must produce json.Marshal's bytes for both,
// and its reader read them back to encoding/json's document: a name,
// an order or an omitempty flag out of step with a tag shows.
func TestJSONWalksMatchStructTags(t *testing.T) {
	for _, k := range jsonKinds {
		for _, full := range []bool{true, false} {
			doc := k.newDoc()
			seq := 0
			fillDoc(reflect.ValueOf(doc).Elem(), full, &seq)
			var walked, marshaled bytes.Buffer
			if err := k.write(&walked, binSpillBytes, doc); err != nil {
				t.Fatal(err)
			}
			if err := encode(&marshaled, doc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(walked.Bytes(), marshaled.Bytes()) {
				t.Errorf("%s (full %v): walk wrote\n%s\njson.Marshal\n%s", k.name, full, walked.Bytes(), marshaled.Bytes())
				continue
			}
			got, ok := k.read(marshaled.Bytes())
			want := k.newDoc()
			if err := decode(bytes.NewReader(marshaled.Bytes()), want); err != nil {
				t.Fatal(err)
			}
			if !ok || !sameDoc(reflect.ValueOf(got), reflect.ValueOf(want)) {
				t.Errorf("%s (full %v): walk read (in subset %v)\n%#v\nencoding/json\n%#v", k.name, full, ok, got, want)
			}
		}
	}
}

// tenantState is a small cluster shaped like one of the many sessions a
// consolidated daemon hosts: ten nodes, thirty jobs (a third running),
// two web applications, every quantity a measured-looking fraction.
func tenantState(tb testing.TB) *core.State {
	tb.Helper()
	model, err := queueing.NewMG1PS(1350.5, 4500)
	if err != nil {
		tb.Fatal(err)
	}
	st := &core.State{Now: 612.37}
	for i := 0; i < 10; i++ {
		st.Nodes = append(st.Nodes, core.NodeInfo{ID: cluster.NodeID(fmt.Sprintf("t0-n%02d", i)), CPU: 18000, Mem: 16000})
	}
	for i := 0; i < 30; i++ {
		job := core.JobInfo{
			ID: batch.JobID(fmt.Sprintf("t0-j%03d", i)), State: batch.Pending, Class: "gold",
			Remaining: res.Work(4500 * (5000 + 137.31*float64(i))), MaxSpeed: 4500, Mem: res.Memory(2000 + 97*(i%7)),
			Goal: 90000 + 1.618*float64(i), Submitted: 33.3 * float64(i%20),
		}
		if i < 10 {
			job.State, job.Node, job.Share = batch.Running, st.Nodes[i].ID, 2999.75
		}
		st.Jobs = append(st.Jobs, job)
	}
	for a := 0; a < 2; a++ {
		instances := map[cluster.NodeID]res.CPU{}
		for i := a; i < 10; i += 2 {
			instances[st.Nodes[i].ID] = 150.125 + res.CPU(i)
		}
		st.Apps = append(st.Apps, core.AppInfo{
			ID: trans.AppID(fmt.Sprintf("t0-web%d", a)), Lambda: 41.7 + 3.3*float64(a), RTGoal: 3, Model: model,
			InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: 1, Instances: instances,
		})
	}
	return st
}

// BenchmarkCodecs measures what one tenant-sized request costs in each
// codec: decoding the plan request, encoding the plan response, and the
// client decoding that response. binary/decodeRequest500x5000 decodes
// a plan request the size of the churn benchmark's (500 nodes, 5000
// jobs).
func BenchmarkCodecs(b *testing.B) {
	st := tenantState(b)
	snap, err := FromCoreState(st)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := FromCorePlan(st, core.New(core.DefaultConfig()).Plan(st))
	if err != nil {
		b.Fatal(err)
	}
	req := &PlanRequest{SchemaVersion: SchemaVersion, ClusterID: "t0-0001", Snapshot: snap}
	resp := &PlanResponse{
		SchemaVersion: SchemaVersion, ClusterID: "t0-0001", Cycle: 3, PlanMode: "full",
		Stats: &PlanStats{Full: 3, LastMode: "full", LastDemandDeltaMHz: 12.5},
		Plan:  plan, Delta: plan.Diff(nil),
	}
	for _, codec := range []struct {
		name       string
		encodeReq  func(io.Writer, *PlanRequest) error
		decodeReq  func(io.Reader) (*PlanRequest, error)
		encodeResp func(io.Writer, *PlanResponse) error
		decodeResp func(io.Reader) (*PlanResponse, error)
	}{
		{"json", EncodePlanRequest, DecodePlanRequest, EncodePlanResponse, DecodePlanResponse},
		{"binary", EncodePlanRequestBinary, DecodePlanRequestBinary, EncodePlanResponseBinary, DecodePlanResponseBinary},
	} {
		var reqBody, respBody bytes.Buffer
		if err := codec.encodeReq(&reqBody, req); err != nil {
			b.Fatal(err)
		}
		if err := codec.encodeResp(&respBody, resp); err != nil {
			b.Fatal(err)
		}
		b.Run(codec.name+"/decodeRequest", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.decodeReq(bytes.NewReader(reqBody.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codec.name+"/encodeResponse", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := codec.encodeResp(io.Discard, resp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codec.name+"/decodeResponse", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.decodeResp(bytes.NewReader(respBody.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	large, err := FromCoreState(largeState(b, 500, 5000))
	if err != nil {
		b.Fatal(err)
	}
	var largeBody bytes.Buffer
	if err := EncodePlanRequestBinary(&largeBody, &PlanRequest{SchemaVersion: SchemaVersion, ClusterID: "c0", Snapshot: large}); err != nil {
		b.Fatal(err)
	}
	b.Run("binary/decodeRequest500x5000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodePlanRequestBinary(bytes.NewReader(largeBody.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestJSONNumbersParseExactly: the reader's short-decimal path returns
// ParseFloat's bits for every number text it takes.
func TestJSONNumbersParseExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if i%2 == 0 {
			v = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(30)-10))
		}
		if !finite(v) {
			continue
		}
		for _, text := range []string{
			strconv.FormatFloat(v, 'f', rng.Intn(12), 64),
			strconv.FormatFloat(v, 'f', -1, 64),
			strconv.FormatFloat(v, 'g', -1, 64),
		} {
			want, err := strconv.ParseFloat(text, 64)
			r := &jsonReader{data: []byte(text)}
			got := r.f64()
			if err == nil && (r.bad || math.Float64bits(got) != math.Float64bits(want)) {
				t.Fatalf("%s: read %v (bad %v), ParseFloat %v", text, got, r.bad, want)
			}
		}
	}
}
