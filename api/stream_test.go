package api

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// largeState is a cluster whose documents are several spill chunks
// long: every node hosts a web instance and two running jobs, the rest
// of the jobs queue.
func largeState(t testing.TB, nodes, jobs int) *core.State {
	t.Helper()
	model, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		t.Fatal(err)
	}
	st := &core.State{Now: 600}
	instances := map[cluster.NodeID]res.CPU{}
	for i := 0; i < nodes; i++ {
		id := cluster.NodeID(fmt.Sprintf("n%04d", i))
		st.Nodes = append(st.Nodes, core.NodeInfo{ID: id, CPU: 18000, Mem: 16000})
		instances[id] = 150 + res.CPU(i)
	}
	for i := 0; i < jobs; i++ {
		job := core.JobInfo{
			ID: batch.JobID(fmt.Sprintf("j%06d", i)), State: batch.Pending,
			Remaining: res.Work(4500 * (5000 + i)), MaxSpeed: 4500, Mem: 5000,
			Goal: 90000 + float64(i), Submitted: float64(i % 600),
		}
		if i < 2*nodes {
			job.State, job.Node, job.Share = batch.Running, st.Nodes[i%nodes].ID, 3000
		}
		st.Jobs = append(st.Jobs, job)
	}
	st.Apps = []core.AppInfo{{
		ID: "web", Lambda: 40 * float64(nodes), RTGoal: 3, Model: model,
		InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: nodes, Instances: instances,
	}}
	return st
}

// binDoc is one document kind: how the public encoder writes it and how
// a writer of the test's choosing does (fill finishes the writer).
type binDoc struct {
	name   string
	encode func(io.Writer) error
	fill   func(*binWriter) error
}

// largeDocs returns one multi-chunk document per Encode*Binary.
func largeDocs(t *testing.T) []binDoc { return docsOf(t, largeState(t, 400, 4000)) }

// docsOf builds every kind of binary document (plan requests in both
// shapes) from one cluster state and the plan for it.
func docsOf(t *testing.T, st *core.State) []binDoc {
	t.Helper()
	snap, err := FromCoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := FromCorePlan(st, core.New(core.DefaultConfig()).Plan(st))
	if err != nil {
		t.Fatal(err)
	}
	req := &PlanRequest{ClusterID: "c", Snapshot: snap, Reply: ReplyDelta, Shards: 2}
	deltaReq := &PlanRequest{ClusterID: "c", Delta: &SnapshotDelta{
		BaseCycle: 3, Now: 610, Nodes: snap.Nodes, UpsertJobs: snap.Jobs, UpsertApps: snap.Apps,
		RemoveJobs: []string{"gone-1", "gone-2"}, RemoveApps: []string{"old"},
	}}
	resp := &PlanResponse{
		ClusterID: "c", Cycle: 4, PlanMode: "full",
		Stats: &PlanStats{Full: 1, Incremental: 2, Replayed: 1, LastMode: "full", LastDemandDeltaMHz: 12.5},
		Plan:  plan, Delta: plan.Diff(nil),
	}
	ck := &Checkpoint{
		ClusterID: "c", Controller: "placement", Cycle: 4, HasNow: true, LastNowSec: 600,
		Shards: 2, ShardBounds: []int{0, len(snap.Nodes) / 2, len(snap.Nodes)}, ShardReshards: 1,
		Snapshot: snap, Plan: plan, Forecast: sampleForecastState(t),
	}
	return []binDoc{
		{"snapshot", func(w io.Writer) error { return EncodeSnapshotBinary(w, snap) }, fillWith(binKindSnapshot, snap, binSnapshot)},
		{"plan", func(w io.Writer) error { return EncodePlanBinary(w, plan) }, fillWith(binKindPlan, plan, binPlan)},
		{"planRequest", func(w io.Writer) error { return EncodePlanRequestBinary(w, req) }, fillWith(binKindPlanRequest, req, binPlanRequest)},
		{"planRequestDelta", func(w io.Writer) error { return EncodePlanRequestBinary(w, deltaReq) }, fillWith(binKindPlanRequest, deltaReq, binPlanRequest)},
		{"planResponse", func(w io.Writer) error { return EncodePlanResponseBinary(w, resp) }, fillWith(binKindPlanResponse, resp, binPlanResponse)},
		{"checkpoint", func(w io.Writer) error { return EncodeCheckpointBinary(w, ck) }, fillWith(binKindCheckpoint, ck, binCheckpoint)},
	}
}

// fillWith encodes doc through a writer of the caller's choosing.
func fillWith[T any](kind byte, doc *T, walk func(*binCodec, *T)) func(*binWriter) error {
	return func(w *binWriter) error { return encodeBinary(w, kind, doc, walk) }
}

// chunkSink keeps what it is given and how it arrived. With failAt > 0
// its failAt-th Write fails, taking nothing; writes after that one are
// counted, not kept.
type chunkSink struct {
	data   bytes.Buffer
	sizes  []int
	failAt int
	after  int
}

var errSinkFull = errors.New("sink: no space left")

func (s *chunkSink) Write(p []byte) (int, error) {
	if s.failAt > 0 && len(s.sizes)+1 > s.failAt {
		s.after++
		return 0, errSinkFull
	}
	s.sizes = append(s.sizes, len(p))
	if len(s.sizes) == s.failAt {
		return 0, errSinkFull
	}
	return s.data.Write(p)
}

// TestBinaryStreamingIdentity: a document's bytes do not depend on how
// the writer chunks them. Spilling after every row, every 4 KB, at the
// production threshold or only once at the end all put the same bytes
// in the sink, in pieces of the promised size.
func TestBinaryStreamingIdentity(t *testing.T) {
	for _, doc := range largeDocs(t) {
		t.Run(doc.name, func(t *testing.T) {
			var whole chunkSink
			if err := doc.fill(&binWriter{sink: &whole, spill: math.MaxInt}); err != nil {
				t.Fatal(err)
			}
			want := whole.data.Bytes()
			if len(whole.sizes) != 1 || len(want) < 3*binSpillBytes {
				t.Fatalf("unspilled document arrived in writes of %v bytes; want one, several chunks long", whole.sizes)
			}

			for _, spill := range []int{1, 4 << 10} {
				var sink chunkSink
				if err := doc.fill(&binWriter{sink: &sink, spill: spill}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sink.data.Bytes(), want) {
					t.Errorf("spill %d: bytes differ from the unspilled document", spill)
				}
				if len(sink.sizes) < len(want)/(spill+binSpillBytes) {
					t.Errorf("spill %d: only %d writes for %d bytes", spill, len(sink.sizes), len(want))
				}
			}

			var public chunkSink
			if err := doc.encode(&public); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(public.data.Bytes(), want) {
				t.Error("public encoder's bytes differ from the unspilled document")
			}
			for i, n := range public.sizes {
				if n > binPoolMaxBytes || (n < binSpillBytes && i < len(public.sizes)-1) {
					t.Errorf("public encoder write %d of %d is %d bytes, want [%d, %d]",
						i, len(public.sizes), n, binSpillBytes, binPoolMaxBytes)
				}
			}
		})
	}
}

// corpusDoc parses one committed fuzz corpus file holding a single
// string or []byte value.
func corpusDoc(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	value, ok := "", len(lines) == 2 && lines[0] == "go test fuzz v1"
	if ok {
		value, ok = strings.CutPrefix(lines[1], "string(")
		if !ok {
			value, ok = strings.CutPrefix(lines[1], "[]byte(")
		}
	}
	if !ok {
		t.Fatalf("%s: not a one-value corpus file", path)
	}
	doc, err := strconv.Unquote(strings.TrimSuffix(value, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return doc
}

// everyChunking encodes one document spilling after every row, every
// 4 KB, at the production threshold and not at all.
func everyChunking(t *testing.T, fill func(*binWriter) error) [][]byte {
	t.Helper()
	var out [][]byte
	for _, spill := range []int{1, 4 << 10, binSpillBytes, math.MaxInt} {
		var buf bytes.Buffer
		if err := fill(&binWriter{sink: &buf, spill: spill}); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from this build's encoders")

// TestBinaryGolden: the binary form of the sample documents is the
// committed one, byte for byte, through the public encoders and at
// every chunking. The golden files were written by the encoders as they
// were before they streamed (binary format 2): wire bytes and checkpoint
// file bytes have not moved.
func TestBinaryGolden(t *testing.T) {
	for _, doc := range docsOf(t, sampleState(t)) {
		path := filepath.Join("testdata", "golden", doc.name+".bin")
		var public bytes.Buffer
		if err := doc.encode(&public); err != nil {
			t.Fatal(err)
		}
		if *updateGolden {
			if err := os.WriteFile(path, public.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range append(everyChunking(t, doc.fill), public.Bytes()) {
			if !bytes.Equal(got, want) {
				t.Errorf("%s, encoding %d: bytes differ from %s\n%x\n%x", doc.name, i, path, got, want)
			}
		}
	}
}

// TestBinaryStreamingCorpora: every document of the committed JSON fuzz
// corpora that decodes has one binary form, whatever the chunking.
func TestBinaryStreamingCorpora(t *testing.T) {
	checked := 0
	each := func(target string, fill func(doc string) func(*binWriter) error) {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no corpus for %s: %v", target, err)
		}
		for _, f := range files {
			doc := corpusDoc(t, f)
			fn := fill(doc)
			if fn == nil {
				continue // a seed the decoder rejects
			}
			checked++
			all := everyChunking(t, fn)
			for _, got := range all[1:] {
				if !bytes.Equal(got, all[0]) {
					t.Errorf("%s: document has two binary forms", f)
				}
			}
		}
	}
	each("FuzzDecodeSnapshot", func(doc string) func(*binWriter) error {
		snap, err := DecodeSnapshot(strings.NewReader(doc))
		if err != nil {
			return nil
		}
		return fillWith(binKindSnapshot, snap, binSnapshot)
	})
	each("FuzzDecodeCheckpoint", func(doc string) func(*binWriter) error {
		ck, err := DecodeCheckpoint(strings.NewReader(doc))
		if err != nil {
			return nil
		}
		return fillWith(binKindCheckpoint, ck, binCheckpoint)
	})
	each("FuzzDecodePlanRequest", func(doc string) func(*binWriter) error {
		req, err := DecodePlanRequest(strings.NewReader(doc))
		if err != nil {
			return nil
		}
		return fillWith(binKindPlanRequest, req, binPlanRequest)
	})
	if checked < 10 {
		t.Fatalf("only %d corpus documents decoded; the corpora moved?", checked)
	}
}

// TestBinaryStreamingSinkFailure: when the sink fails, the encoder
// reports that error, the sink holds a strict prefix of the document,
// and nothing is written after the failed chunk — so a checkpoint temp
// file whose write failed is never complete, and never renamed.
func TestBinaryStreamingSinkFailure(t *testing.T) {
	for _, doc := range largeDocs(t) {
		t.Run(doc.name, func(t *testing.T) {
			var whole chunkSink
			if err := doc.encode(&whole); err != nil {
				t.Fatal(err)
			}
			want, writes := whole.data.Bytes(), len(whole.sizes)
			if writes < 3 {
				t.Fatalf("document took %d writes, want several", writes)
			}
			for _, failAt := range []int{1, 2, writes} {
				sink := chunkSink{failAt: failAt}
				err := doc.encode(&sink)
				if !errors.Is(err, errSinkFull) {
					t.Errorf("write %d failed, encoder returned %v", failAt, err)
				}
				if sink.after != 0 {
					t.Errorf("write %d failed, encoder wrote %d more times", failAt, sink.after)
				}
				got := sink.data.Bytes()
				if len(got) >= len(want) || !bytes.Equal(got, want[:len(got)]) {
					t.Errorf("write %d failed, sink holds %d bytes that are not a strict prefix of the %d", failAt, len(got), len(want))
				}
			}

			short := shortSink{}
			if err := doc.encode(&short); !errors.Is(err, io.ErrShortWrite) {
				t.Errorf("sink took half a chunk silently, encoder returned %v", err)
			}
		})
	}
}

// TestBinaryEncodersShareWritersSafely: the encoders draw their writers
// from one pool. Goroutines encoding different documents at once must
// each get their own document's bytes back.
func TestBinaryEncodersShareWritersSafely(t *testing.T) {
	docs := append(largeDocs(t), docsOf(t, sampleState(t))...)
	want := make([][]byte, len(docs))
	for i, doc := range docs {
		var buf bytes.Buffer
		if err := doc.encode(&buf); err != nil {
			t.Fatal(err)
		}
		want[i] = buf.Bytes()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(docs)
				var buf bytes.Buffer
				if err := docs[i].encode(&buf); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), want[i]) {
					t.Errorf("goroutine %d round %d: %s encoded to someone else's bytes", g, round, docs[i].name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// shortSink accepts half of what it is given without reporting an error.
type shortSink struct{}

func (shortSink) Write(p []byte) (int, error) { return len(p) / 2, nil }

// lenReader claims a length that need not be the truth.
type lenReader struct {
	io.Reader
	claim int
}

func (r lenReader) Len() int { return r.claim }

// TestReadAllLengthHint: the length a reader announces sizes the
// buffer and nothing else — short, exact, long, absurd and negative
// claims all read the same bytes, and an absurd one allocates no more
// than the cap.
func TestReadAllLengthHint(t *testing.T) {
	data := bytes.Repeat([]byte("slaplace"), 5000)
	for _, claim := range []int{-1, 0, 1, len(data) - 1, len(data), len(data) + 1, 10 * len(data), math.MaxInt} {
		// iotest-style: hand the bytes over in uneven pieces.
		r := lenReader{io.MultiReader(bytes.NewReader(data[:7]), bytes.NewReader(data[7:])), claim}
		got, err := readAll(r)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("claim %d: read %d bytes, err %v", claim, len(got), err)
		}
		if cap(got) > max(2*len(data), maxReadPresize+maxReadPresize/16) { // the cap, plus allocator rounding
			t.Errorf("claim %d: buffer grew to %d bytes", claim, cap(got))
		}
	}
	boom := errors.New("boom")
	r := lenReader{io.MultiReader(bytes.NewReader(data[:100]), errReader{boom}), len(data)}
	if got, err := readAll(r); !errors.Is(err, boom) || len(got) != 100 {
		t.Errorf("failing reader: %d bytes, err %v", len(got), err)
	}
	// The decoders take the hint from a plain bytes.Reader.
	var bin bytes.Buffer
	snap, _ := FromCoreState(largeState(t, 20, 200))
	if err := EncodeSnapshotBinary(&bin, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshotBinary(bytes.NewReader(bin.Bytes())); err != nil {
		t.Fatal(err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
