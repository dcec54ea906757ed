package api

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDecodeSnapshot hammers the snapshot codec with arbitrary bytes:
// anything that decodes and validates must re-encode, re-decode and
// re-encode to the identical bytes (canonical-form idempotence), and
// must convert to a planner state without panicking.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(`{"schemaVersion":1,"now":0,"nodes":[{"id":"n1","cpuMHz":1000,"memMB":1000}]}`)
	f.Add(`{"schemaVersion":1,"now":50,"nodes":[{"id":"n1","cpuMHz":1000,"memMB":1000}],` +
		`"jobs":[{"id":"j1","state":"running","node":"n1","shareMHz":10,` +
		`"remainingMHzs":100,"maxSpeedMHz":10,"memMB":5,"goalSec":99,"submittedSec":1}]}`)
	f.Add(`{"schemaVersion":1,"now":1,"nodes":[{"id":"n","cpuMHz":1,"memMB":1}],` +
		`"apps":[{"id":"a","lambda":5,"rtGoalSec":2,` +
		`"model":{"type":"mg1ps","demandMHzs":10,"coreSpeedMHz":100},` +
		`"utility":{"type":"sigmoid","k":4},"instanceMemMB":10,"maxPerInstanceMHz":50,` +
		`"instances":[{"node":"n","shareMHz":3}],"measuredRTSec":"+Inf"}]}`)
	f.Add(`{"schemaVersion":2,"now":0}`)
	f.Add(`{"unknown":true}`)
	f.Add(`not json at all`)

	f.Fuzz(func(t *testing.T, doc string) {
		snap, err := DecodeSnapshot(strings.NewReader(doc))
		if err != nil {
			return // invalid input is allowed to fail, not to panic
		}
		var a bytes.Buffer
		if err := EncodeSnapshot(&a, snap); err != nil {
			t.Fatalf("valid snapshot failed to encode: %v", err)
		}
		again, err := DecodeSnapshot(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("canonical form failed to decode: %v\n%s", err, a.Bytes())
		}
		var b bytes.Buffer
		if err := EncodeSnapshot(&b, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("canonical form not stable:\n%s\n%s", a.Bytes(), b.Bytes())
		}
		if _, err := snap.CoreState(); err != nil {
			t.Fatalf("validated snapshot failed to convert: %v", err)
		}
	})
}

// FuzzDecodeBinarySnapshot hammers the binary snapshot decoder with
// arbitrary bytes: anything it accepts must re-encode to the identical
// bytes (the binary form is canonical), cross-decode through JSON to
// the same document, and convert to a planner state without panicking.
// The decoder sees genuinely hostile framing here — lying counts,
// truncated floats, corrupt varints — so this is also the allocation-
// bomb regression test.
func FuzzDecodeBinarySnapshot(f *testing.F) {
	seed := func(doc string) {
		snap, err := DecodeSnapshot(strings.NewReader(doc))
		if err != nil {
			f.Fatalf("bad seed: %v", err)
		}
		var bin bytes.Buffer
		if err := EncodeSnapshotBinary(&bin, snap); err != nil {
			f.Fatal(err)
		}
		f.Add(bin.Bytes())
	}
	seed(`{"schemaVersion":1,"now":0,"nodes":[{"id":"n1","cpuMHz":1000,"memMB":1000}]}`)
	seed(`{"schemaVersion":1,"now":50,"nodes":[{"id":"n1","cpuMHz":1000,"memMB":1000}],` +
		`"jobs":[{"id":"j1","state":"running","node":"n1","shareMHz":10,` +
		`"remainingMHzs":100,"maxSpeedMHz":10,"memMB":5,"goalSec":99,"submittedSec":1}]}`)
	seed(`{"schemaVersion":1,"now":1,"nodes":[{"id":"n","cpuMHz":1,"memMB":1}],` +
		`"apps":[{"id":"a","lambda":5,"rtGoalSec":2,` +
		`"model":{"type":"mg1ps","demandMHzs":10,"coreSpeedMHz":100},` +
		`"utility":{"type":"sigmoid","k":4},"instanceMemMB":10,"maxPerInstanceMHz":50,` +
		`"instances":[{"node":"n","shareMHz":3}],"measuredRTSec":"+Inf"}]}`)
	f.Add([]byte("SLPB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshotBinary(bytes.NewReader(data))
		if err != nil {
			return // invalid input is allowed to fail, not to panic
		}
		var again bytes.Buffer
		if err := EncodeSnapshotBinary(&again, snap); err != nil {
			t.Fatalf("valid snapshot failed to re-encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("binary form not canonical:\n%x\n%x", data, again.Bytes())
		}
		// Cross-codec agreement: the JSON round trip of the decoded
		// document must describe the same snapshot.
		var js bytes.Buffer
		if err := EncodeSnapshot(&js, snap); err != nil {
			t.Fatal(err)
		}
		viaJSON, err := DecodeSnapshot(bytes.NewReader(js.Bytes()))
		if err != nil {
			t.Fatalf("binary-accepted snapshot rejected by JSON: %v", err)
		}
		var binAgain bytes.Buffer
		if err := EncodeSnapshotBinary(&binAgain, viaJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(binAgain.Bytes(), data) {
			t.Fatalf("codecs disagree:\n%x\n%x", data, binAgain.Bytes())
		}
		if _, err := snap.CoreState(); err != nil {
			t.Fatalf("validated snapshot failed to convert: %v", err)
		}
	})
}

// binaryRoundTrips re-encodes what the plan, plan-request,
// plan-response and checkpoint decoders accept, by document kind.
var binaryRoundTrips = map[byte]func([]byte) (again []byte, accepted bool, err error){
	binKindPlan:         roundTrip(DecodePlanBinary, EncodePlanBinary),
	binKindPlanRequest:  roundTrip(DecodePlanRequestBinary, EncodePlanRequestBinary),
	binKindPlanResponse: roundTrip(DecodePlanResponseBinary, EncodePlanResponseBinary),
	binKindCheckpoint:   roundTrip(DecodeCheckpointBinary, EncodeCheckpointBinary),
}

func roundTrip[T any](decode func(io.Reader) (*T, error), encode func(io.Writer, *T) error) func([]byte) ([]byte, bool, error) {
	return func(data []byte) ([]byte, bool, error) {
		doc, err := decode(bytes.NewReader(data))
		if err != nil {
			return nil, false, nil
		}
		var again bytes.Buffer
		err = encode(&again, doc)
		return again.Bytes(), true, err
	}
}

// FuzzDecodeBinary hammers the binary decoders of every document but
// the snapshot (FuzzDecodeBinarySnapshot's) with arbitrary bytes,
// starting from the golden documents: the input's kind byte picks the
// decoder, and anything it accepts must re-encode to the identical
// bytes. This is where the plan, delta, forecast and checkpoint layouts
// meet hostile framing.
func FuzzDecodeBinary(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "golden", "*.bin"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("no golden binary documents: %v", err)
	}
	for _, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < len(binaryMagic)+2 || binaryRoundTrips[data[5]] == nil {
			return
		}
		again, accepted, err := binaryRoundTrips[data[5]](data)
		if !accepted {
			return // invalid input is allowed to fail, not to panic
		}
		if err != nil {
			t.Fatalf("accepted document failed to re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("binary form not canonical:\n%x\n%x", data, again)
		}
	})
}

// TestBinaryFuzzSeedsPassHeader: the committed binary fuzz seeds start
// the fuzzers inside the layouts, not at the header. Every one passes
// the magic, format-version, kind and schema-version checks, unless its
// name says bad-.
func TestBinaryFuzzSeedsPassHeader(t *testing.T) {
	kinds := map[string][]byte{
		"FuzzDecodeBinarySnapshot": {binKindSnapshot},
		"FuzzDecodeBinary":         {binKindPlan, binKindPlanRequest, binKindPlanResponse, binKindCheckpoint},
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeBinary*", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no binary fuzz corpus: %v", err)
	}
	checked := 0
	for _, f := range files {
		if strings.HasPrefix(filepath.Base(f), "bad-") {
			continue
		}
		data := []byte(corpusDoc(t, f))
		passed := false
		for _, kind := range kinds[filepath.Base(filepath.Dir(f))] {
			c := &binCodec{r: &binReader{data: data}}
			var version int
			c.header(kind)
			c.version(&version)
			passed = passed || c.r.err == nil
		}
		if !passed {
			t.Errorf("%s: rejected at the header; regenerate it or name it bad-*", f)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("every binary seed is named bad-*")
	}
}

// FuzzDecodeCheckpoint checks the JSON checkpoint codec the same way
// the snapshot fuzzer does: accepted documents must re-encode stably
// and survive a binary round trip unchanged.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(`{"schemaVersion":1,"clusterId":"c","cycle":0}`)
	f.Add(`{"schemaVersion":1,"clusterId":"c","controller":"placement","cycle":2,` +
		`"hasNow":true,"lastNowSec":10.5,"shards":2,"shardBounds":[0,1,2],"shardReshards":1,` +
		`"snapshot":{"schemaVersion":1,"now":10,"nodes":[{"id":"n1","cpuMHz":1000,"memMB":1000}]},` +
		`"plan":{"schemaVersion":1,"placement":{},"diagnostics":{"equalizedUtility":1,` +
		`"hypotheticalJobUtility":"-Inf","jobDemandMHz":0,"jobTargetMHz":0}}}`)
	f.Add(`{"schemaVersion":1,"cycle":-1}`)
	f.Add(`{}`)
	f.Fuzz(func(t *testing.T, doc string) {
		ck, err := DecodeCheckpoint(strings.NewReader(doc))
		if err != nil {
			return
		}
		var a bytes.Buffer
		if err := EncodeCheckpoint(&a, ck); err != nil {
			t.Fatalf("valid checkpoint failed to encode: %v", err)
		}
		again, err := DecodeCheckpoint(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("canonical form failed to decode: %v\n%s", err, a.Bytes())
		}
		var b bytes.Buffer
		if err := EncodeCheckpoint(&b, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("canonical form not stable:\n%s\n%s", a.Bytes(), b.Bytes())
		}
		// Binary round trip preserves the document.
		var bin bytes.Buffer
		if err := EncodeCheckpointBinary(&bin, ck); err != nil {
			t.Fatalf("valid checkpoint failed binary encode: %v", err)
		}
		viaBin, err := DecodeCheckpointBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("binary round trip rejected: %v", err)
		}
		var c bytes.Buffer
		if err := EncodeCheckpoint(&c, viaBin); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Fatalf("binary round trip altered the checkpoint:\n%s\n%s", a.Bytes(), c.Bytes())
		}
	})
}

// FuzzDecodePlanRequest checks the request envelope the same way.
func FuzzDecodePlanRequest(f *testing.F) {
	f.Add(`{"schemaVersion":1,"clusterId":"c","snapshot":{"schemaVersion":1,"now":0,` +
		`"nodes":[{"id":"n1","cpuMHz":1000,"memMB":1000}]}}`)
	f.Add(`{"schemaVersion":1,"delta":{"baseCycle":3,"now":10,"removeJobs":["j1"]}}`)
	f.Add(`{"schemaVersion":1,"reply":"delta","delta":{"baseCycle":1,"now":2}}`)
	f.Add(`{}`)
	f.Fuzz(func(t *testing.T, doc string) {
		req, err := DecodePlanRequest(strings.NewReader(doc))
		if err != nil {
			return
		}
		if (req.Snapshot == nil) == (req.Delta == nil) {
			t.Fatalf("accepted request without exactly one of snapshot/delta: %s", doc)
		}
	})
}
