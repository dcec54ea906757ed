package api

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Compact binary codec for the wire schema, negotiated over HTTP via
// Content-Type/Accept (see ContentTypeBinary). JSON remains the
// canonical encoding: every document has exactly one JSON form, the
// golden fixtures are JSON, and a peer that cannot speak binary loses
// nothing but bytes. The binary form exists for the serve hot path,
// where JSON encode/decode of a 500-node/5000-job snapshot dominates
// the request cost.
//
// Properties:
//
//   - Lossless to the bit: float64s are encoded as their IEEE-754 bit
//     patterns (±Inf and NaN included), so a binary round trip feeds
//     the planner the identical state a JSON round trip would, and
//     plans — and their golden digests — cannot differ between codecs.
//   - Canonical: maps are emitted in sorted key order; one document
//     has one binary form.
//   - Self-identifying: every document opens with a 4-byte magic, a
//     binary-format version and a document kind. The format version is
//     the layout's, not the schema's: any field addition bumps it, and
//     decoders reject newer formats outright (the client falls back to
//     JSON, which tolerates unknown fields). Negotiated-per-request
//     compression, not an archival format.
//   - Hostile-input safe: all counts are validated against the bytes
//     actually remaining before allocation (fuzzed, like the JSON
//     decoders).
const (
	// ContentTypeJSON is the canonical media type.
	ContentTypeJSON = "application/json"
	// ContentTypeBinary selects the compact binary codec.
	ContentTypeBinary = "application/x-slaplace-binary"
)

// BinaryFormatVersion is the binary layout version this build writes.
// Unlike SchemaVersion it has no tolerance window: additive schema
// changes change the layout, so decoders accept exactly this version.
//
// Version history: 2 added the forecast hint to plan requests and the
// forecast state to checkpoints.
const BinaryFormatVersion = 2

// binaryMagic opens every binary document.
var binaryMagic = [4]byte{'S', 'L', 'P', 'B'}

// Document kinds.
const (
	binKindSnapshot     = 1
	binKindPlan         = 2
	binKindPlanRequest  = 3
	binKindPlanResponse = 4
	binKindCheckpoint   = 5
)

// Action kinds on the binary wire (byte codes for the Action.Type
// strings).
var actionCode = map[string]byte{
	ActionStartJob:         1,
	ActionResumeJob:        2,
	ActionSuspendJob:       3,
	ActionMigrateJob:       4,
	ActionSetJobShare:      5,
	ActionAddInstance:      6,
	ActionRemoveInstance:   7,
	ActionSetInstanceShare: 8,
}

var actionName = func() map[byte]string {
	m := make(map[byte]string, len(actionCode))
	for name, code := range actionCode {
		m[code] = name
	}
	return m
}()

const (
	// binSpillBytes is how much of a document a streaming binWriter
	// buffers before handing it to the sink.
	binSpillBytes = 32 << 10
	// binPoolMaxBytes is the largest buffer a finished binWriter takes
	// back to the pool; a row that outgrew it is left to the collector.
	binPoolMaxBytes = 64 << 10
	// maxReadPresize caps the buffer readAll allocates on a reader's
	// word about its length, before any byte of it has arrived.
	maxReadPresize = 1 << 20
)

// binWriter encodes one binary document and streams it to a sink: the
// document is never resident whole. Between rows (a node, a job, an
// action, a placement entry) a buffer past spill bytes is written out
// and reused, so the sink sees the document's exact bytes in chunks of
// about that size whatever the document's length. Sink errors latch:
// after the first, nothing more is written and finish reports it.
type binWriter struct {
	buf   []byte
	sink  io.Writer
	spill int
	err   error
}

// binWriters recycles writers, and with them their buffers, across
// documents and goroutines; nothing is held per session.
var binWriters = sync.Pool{New: func() any { return new(binWriter) }}

// newBinWriter returns a pooled writer streaming to sink.
func newBinWriter(sink io.Writer) *binWriter {
	w := binWriters.Get().(*binWriter)
	w.sink, w.spill = sink, binSpillBytes
	return w
}

// row marks a row boundary, where a full buffer may be written out.
func (w *binWriter) row() {
	if len(w.buf) >= w.spill {
		w.flush()
	}
}

// flush hands the buffered bytes to the sink, or drops them once the
// sink has failed.
func (w *binWriter) flush() {
	if w.err == nil && len(w.buf) > 0 {
		n, err := w.sink.Write(w.buf)
		if err == nil && n < len(w.buf) {
			err = io.ErrShortWrite
		}
		w.err = err
	}
	w.buf = w.buf[:0]
}

// finish writes out what is still buffered, returns the writer to the
// pool and reports the first sink error. The writer must not be used
// afterwards.
func (w *binWriter) finish() error {
	w.flush()
	err := w.err
	if cap(w.buf) <= binPoolMaxBytes {
		*w = binWriter{buf: w.buf}
		binWriters.Put(w)
	}
	return err
}

func (w *binWriter) header(kind byte, schemaVersion int) {
	w.buf = append(w.buf, binaryMagic[:]...)
	w.buf = append(w.buf, BinaryFormatVersion, kind)
	w.uvarint(uint64(schemaVersion))
}

func (w *binWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *binWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *binWriter) intv(v int)       { w.varint(int64(v)) }
func (w *binWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *binWriter) boolv(v bool) {
	var b byte
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}
func (w *binWriter) str(s string)   { w.uvarint(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *binWriter) count(n int)    { w.uvarint(uint64(n)) }
func (w *binWriter) byteVal(b byte) { w.buf = append(w.buf, b) }
func (w *binWriter) floatMap(m map[string]Float) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.count(len(keys))
	for _, k := range keys {
		w.str(k)
		w.f64(float64(m[k]))
	}
}

// binReader consumes one binary document. Errors latch: after the
// first failure every read returns zero values.
type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("api: binary decode: "+format, args...)
	}
}

func (r *binReader) remaining() int { return len(r.data) - r.off }

func (r *binReader) header(wantKind byte) int {
	if r.remaining() < len(binaryMagic)+2 {
		r.fail("truncated header")
		return 0
	}
	if [4]byte(r.data[r.off:r.off+4]) != binaryMagic {
		r.fail("bad magic")
		return 0
	}
	r.off += 4
	format := r.data[r.off]
	kind := r.data[r.off+1]
	r.off += 2
	if format != BinaryFormatVersion {
		r.fail("format version %d (this build reads exactly %d; fall back to JSON)", format, BinaryFormatVersion)
		return 0
	}
	if kind != wantKind {
		r.fail("document kind %d, want %d", kind, wantKind)
		return 0
	}
	return int(r.uvarint())
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at %d", r.off)
		return 0
	}
	// Over-long encodings (a zero final byte) would give one value two
	// wire forms; the format is canonical, so reject them.
	if n > 1 && r.data[r.off+n-1] == 0 {
		r.fail("non-minimal uvarint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad varint at %d", r.off)
		return 0
	}
	if n > 1 && r.data[r.off+n-1] == 0 {
		r.fail("non-minimal varint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) intv() int { return int(r.varint()) }

func (r *binReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("truncated float at %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

func (r *binReader) boolv() bool {
	if r.err != nil {
		return false
	}
	if r.remaining() < 1 {
		r.fail("truncated bool at %d", r.off)
		return false
	}
	b := r.data[r.off]
	r.off++
	if b > 1 {
		r.fail("bad bool %d at %d", b, r.off-1)
		return false
	}
	return b == 1
}

func (r *binReader) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.fail("truncated byte at %d", r.off)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *binReader) str() string { return string(r.strBytes()) }

// strBytes reads a string's bytes without copying them out of the
// document.
func (r *binReader) strBytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("string length %d exceeds %d remaining bytes", n, r.remaining())
		return nil
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// jobState reads a job state string. One document repeats the same
// three strings thousands of times; they decode to the constants
// instead of a fresh copy each.
func (r *binReader) jobState() string {
	b := r.strBytes()
	switch string(b) {
	case JobPending:
		return JobPending
	case JobRunning:
		return JobRunning
	case JobSuspended:
		return JobSuspended
	}
	return string(b)
}

// count reads an element count and bounds it by the bytes remaining:
// every element costs at least minBytes on the wire, so a count beyond
// remaining/minBytes is corrupt — rejected before any allocation.
func (r *binReader) count(minBytes int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(r.remaining()/minBytes) {
		r.fail("count %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

func (r *binReader) floatMap() map[string]Float {
	n := r.count(9)
	if n == 0 {
		return nil
	}
	m := make(map[string]Float, n)
	prev := ""
	for i := 0; i < n; i++ {
		k := r.str()
		v := r.f64()
		if r.err != nil {
			return nil
		}
		// Keys arrive in strictly increasing order (the canonical form
		// the writer emits); anything else is two wire forms for one map.
		if i > 0 && k <= prev {
			r.fail("map keys not in canonical order (%q after %q)", k, prev)
			return nil
		}
		prev = k
		m[k] = Float(v)
	}
	return m
}

// readAll is io.ReadAll with the buffer sized up front when the reader
// knows its length (a bytes.Reader, a request body announcing its
// Content-Length): one allocation for the document instead of a dozen
// doublings. The length is a hint, never a limit — shorter and longer
// inputs read correctly — and it is capped, so a peer's claim alone
// cannot make the decoder allocate much more than maxReadPresize.
func readAll(r io.Reader) ([]byte, error) {
	sized, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	var buf bytes.Buffer
	// MinRead to spare: ReadFrom sees EOF without growing the buffer.
	buf.Grow(min(max(sized.Len(), 0), maxReadPresize) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// finish validates that the document was consumed exactly.
func (r *binReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("api: binary decode: %d trailing bytes", r.remaining())
	}
	return nil
}

// --- Snapshot ---

func (w *binWriter) snapshotBody(s *Snapshot) {
	w.f64(s.Now)
	w.count(len(s.Nodes))
	for _, n := range s.Nodes {
		w.str(n.ID)
		w.f64(n.CPUMHz)
		w.varint(n.MemMB)
		w.row()
	}
	w.count(len(s.Jobs))
	for i := range s.Jobs {
		w.job(&s.Jobs[i])
	}
	w.count(len(s.Apps))
	for i := range s.Apps {
		w.app(&s.Apps[i])
	}
}

func (r *binReader) snapshotBody(version int) *Snapshot {
	s := &Snapshot{SchemaVersion: version, Now: r.f64()}
	if n := r.count(2); n > 0 {
		s.Nodes = make([]Node, n)
		for i := range s.Nodes {
			s.Nodes[i] = Node{ID: r.str(), CPUMHz: r.f64(), MemMB: r.varint()}
		}
	}
	if n := r.count(8); n > 0 {
		s.Jobs = make([]Job, n)
		for i := range s.Jobs {
			s.Jobs[i] = r.job()
		}
	}
	if n := r.count(8); n > 0 {
		s.Apps = make([]App, n)
		for i := range s.Apps {
			s.Apps[i] = r.app()
		}
	}
	return s
}

func (w *binWriter) job(j *Job) {
	w.str(j.ID)
	w.str(j.Class)
	w.str(j.State)
	w.str(j.Node)
	w.f64(j.ShareMHz)
	w.boolv(j.Migrating)
	w.f64(j.RemainingMHzs)
	w.f64(j.MaxSpeedMHz)
	w.varint(j.MemMB)
	w.f64(j.GoalSec)
	w.f64(j.SubmittedSec)
	w.utilityFn(j.Utility)
	w.row()
}

func (r *binReader) job() Job {
	return Job{
		ID: r.str(), Class: r.str(), State: r.jobState(), Node: r.str(),
		ShareMHz: r.f64(), Migrating: r.boolv(),
		RemainingMHzs: r.f64(), MaxSpeedMHz: r.f64(), MemMB: r.varint(),
		GoalSec: r.f64(), SubmittedSec: r.f64(), Utility: r.utilityFn(),
	}
}

func (w *binWriter) app(a *App) {
	w.str(a.ID)
	w.f64(a.Lambda)
	w.f64(a.RTGoalSec)
	w.str(a.Model.Type)
	w.f64(a.Model.DemandMHzs)
	w.f64(a.Model.CoreSpeedMHz)
	w.utilityFn(a.Utility)
	w.varint(a.InstanceMemMB)
	w.f64(a.MaxPerInstanceMHz)
	w.intv(a.MinInstances)
	w.intv(a.MaxInstances)
	w.count(len(a.Instances))
	for _, in := range a.Instances {
		w.str(in.Node)
		w.f64(in.ShareMHz)
	}
	w.f64(float64(a.MeasuredRTSec))
	w.row()
}

func (r *binReader) app() App {
	a := App{
		ID: r.str(), Lambda: r.f64(), RTGoalSec: r.f64(),
		Model:   Model{Type: r.str(), DemandMHzs: r.f64(), CoreSpeedMHz: r.f64()},
		Utility: r.utilityFn(),
	}
	a.InstanceMemMB = r.varint()
	a.MaxPerInstanceMHz = r.f64()
	a.MinInstances = r.intv()
	a.MaxInstances = r.intv()
	if n := r.count(9); n > 0 {
		a.Instances = make([]Instance, n)
		for i := range a.Instances {
			a.Instances[i] = Instance{Node: r.str(), ShareMHz: r.f64()}
		}
	}
	a.MeasuredRTSec = Float(r.f64())
	return a
}

func (w *binWriter) utilityFn(u *UtilityFn) {
	w.boolv(u != nil)
	if u == nil {
		return
	}
	w.str(u.Type)
	w.f64(u.Floor)
	w.f64(u.K)
	w.count(len(u.Points))
	for _, p := range u.Points {
		w.f64(p.P)
		w.f64(p.U)
	}
}

func (r *binReader) utilityFn() *UtilityFn {
	if !r.boolv() {
		return nil
	}
	u := &UtilityFn{Type: r.str(), Floor: r.f64(), K: r.f64()}
	if n := r.count(16); n > 0 {
		u.Points = make([]Point, n)
		for i := range u.Points {
			u.Points[i] = Point{P: r.f64(), U: r.f64()}
		}
	}
	return u
}

// EncodeSnapshotBinary writes one snapshot in the binary form,
// stamping the schema version if the caller left it zero.
func EncodeSnapshotBinary(w io.Writer, s *Snapshot) error {
	bw := newBinWriter(w)
	bw.snapshotDoc(s)
	return bw.finish()
}

func (w *binWriter) snapshotDoc(s *Snapshot) {
	if s.SchemaVersion == 0 {
		s.SchemaVersion = SchemaVersion
	}
	w.header(binKindSnapshot, s.SchemaVersion)
	w.snapshotBody(s)
}

// DecodeSnapshotBinary reads, version-checks and validates one binary
// snapshot.
func DecodeSnapshotBinary(r io.Reader) (*Snapshot, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("api: binary decode: %w", err)
	}
	br := &binReader{data: data}
	version := br.header(binKindSnapshot)
	if br.err == nil {
		if err := CheckVersion(version); err != nil {
			return nil, err
		}
	}
	s := br.snapshotBody(version)
	if err := br.finish(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- Plan ---

func (w *binWriter) planBody(p *Plan) {
	w.actions(p.Actions)
	w.count(len(p.Placement.Jobs))
	for _, j := range p.Placement.Jobs {
		w.str(j.ID)
		w.str(j.State)
		w.str(j.Node)
		w.f64(j.ShareMHz)
		w.row()
	}
	w.count(len(p.Placement.Apps))
	for _, a := range p.Placement.Apps {
		w.str(a.ID)
		w.count(len(a.Instances))
		for _, in := range a.Instances {
			w.str(in.Node)
			w.f64(in.ShareMHz)
		}
		w.row()
	}
	w.f64(float64(p.Diagnostics.EqualizedUtility))
	w.f64(float64(p.Diagnostics.HypotheticalJobUtility))
	w.floatMap(p.Diagnostics.ClassHypoUtility)
	w.f64(float64(p.Diagnostics.JobDemandMHz))
	w.f64(float64(p.Diagnostics.JobTargetMHz))
	w.floatMap(p.Diagnostics.AppPrediction)
	w.floatMap(p.Diagnostics.AppDemandMHz)
	w.floatMap(p.Diagnostics.AppTargetMHz)
}

func (r *binReader) planBody(version int) *Plan {
	p := &Plan{SchemaVersion: version}
	p.Actions = r.actions()
	if n := r.count(4); n > 0 {
		p.Placement.Jobs = make([]JobPlacement, n)
		for i := range p.Placement.Jobs {
			p.Placement.Jobs[i] = JobPlacement{ID: r.str(), State: r.jobState(), Node: r.str(), ShareMHz: r.f64()}
		}
	}
	if n := r.count(2); n > 0 {
		p.Placement.Apps = make([]AppPlacement, n)
		for i := range p.Placement.Apps {
			a := AppPlacement{ID: r.str()}
			if m := r.count(9); m > 0 {
				a.Instances = make([]Instance, m)
				for k := range a.Instances {
					a.Instances[k] = Instance{Node: r.str(), ShareMHz: r.f64()}
				}
			}
			p.Placement.Apps[i] = a
		}
	}
	p.Diagnostics.EqualizedUtility = Float(r.f64())
	p.Diagnostics.HypotheticalJobUtility = Float(r.f64())
	p.Diagnostics.ClassHypoUtility = r.floatMap()
	p.Diagnostics.JobDemandMHz = Float(r.f64())
	p.Diagnostics.JobTargetMHz = Float(r.f64())
	p.Diagnostics.AppPrediction = r.floatMap()
	p.Diagnostics.AppDemandMHz = r.floatMap()
	p.Diagnostics.AppTargetMHz = r.floatMap()
	return p
}

func (w *binWriter) actions(actions []Action) {
	w.count(len(actions))
	for _, a := range actions {
		code, ok := actionCode[a.Type]
		if !ok {
			code = 0 // decoder rejects; unknown actions cannot arise from FromCorePlan
		}
		w.byteVal(code)
		w.str(a.Job)
		w.str(a.App)
		w.str(a.Node)
		w.f64(a.ShareMHz)
		w.row()
	}
}

func (r *binReader) actions() []Action {
	n := r.count(12)
	if n == 0 {
		return nil
	}
	out := make([]Action, n)
	for i := range out {
		code := r.byteVal()
		name, ok := actionName[code]
		if !ok && r.err == nil {
			r.fail("unknown action code %d", code)
		}
		out[i] = Action{Type: name, Job: r.str(), App: r.str(), Node: r.str(), ShareMHz: r.f64()}
	}
	return out
}

// EncodePlanBinary writes one plan in the binary form.
func EncodePlanBinary(w io.Writer, p *Plan) error {
	bw := newBinWriter(w)
	bw.planDoc(p)
	return bw.finish()
}

func (w *binWriter) planDoc(p *Plan) {
	if p.SchemaVersion == 0 {
		p.SchemaVersion = SchemaVersion
	}
	w.header(binKindPlan, p.SchemaVersion)
	w.planBody(p)
}

// DecodePlanBinary reads and version-checks one binary plan.
func DecodePlanBinary(r io.Reader) (*Plan, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("api: binary decode: %w", err)
	}
	br := &binReader{data: data}
	version := br.header(binKindPlan)
	if br.err == nil {
		if err := CheckVersion(version); err != nil {
			return nil, err
		}
	}
	p := br.planBody(version)
	if err := br.finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// --- Forecast ---

func (w *binWriter) forecastConfig(c *ForecastConfig) {
	w.str(c.Predictor)
	w.intv(c.Window)
	w.f64(c.HoltAlpha)
	w.f64(c.HoltBeta)
	w.intv(c.AROrder)
	w.boolv(c.CorrectionAlpha != nil)
	if c.CorrectionAlpha != nil {
		w.f64(*c.CorrectionAlpha)
	}
}

func (r *binReader) forecastConfig() ForecastConfig {
	c := ForecastConfig{
		Predictor: r.str(), Window: r.intv(),
		HoltAlpha: r.f64(), HoltBeta: r.f64(), AROrder: r.intv(),
	}
	if r.boolv() {
		alpha := r.f64()
		c.CorrectionAlpha = &alpha
	}
	return c
}

func (w *binWriter) forecastState(s *ForecastState) {
	w.forecastConfig(&s.Config)
	w.boolv(s.HasNow)
	w.f64(s.LastNowSec)
	w.count(len(s.Apps))
	for _, a := range s.Apps {
		w.str(a.ID)
		w.count(len(a.History))
		for _, v := range a.History {
			w.f64(v)
		}
		w.f64(a.Factor)
		w.intv(a.CorrectionSamples)
		w.boolv(a.HasPred)
		w.f64(a.PredForSec)
		w.f64(a.Pred)
		w.row()
	}
}

func (r *binReader) forecastState() *ForecastState {
	s := &ForecastState{Config: r.forecastConfig(), HasNow: r.boolv(), LastNowSec: r.f64()}
	if n := r.count(20); n > 0 {
		s.Apps = make([]ForecastApp, n)
		for i := range s.Apps {
			a := ForecastApp{ID: r.str()}
			if m := r.count(8); m > 0 {
				a.History = make([]float64, m)
				for k := range a.History {
					a.History[k] = r.f64()
				}
			}
			a.Factor = r.f64()
			a.CorrectionSamples = r.intv()
			a.HasPred = r.boolv()
			a.PredForSec = r.f64()
			a.Pred = r.f64()
			s.Apps[i] = a
		}
	}
	return s
}

// --- PlanRequest ---

func (w *binWriter) delta(d *SnapshotDelta) {
	w.intv(d.BaseCycle)
	w.f64(d.Now)
	w.boolv(d.Nodes != nil)
	if d.Nodes != nil {
		w.count(len(d.Nodes))
		for _, n := range d.Nodes {
			w.str(n.ID)
			w.f64(n.CPUMHz)
			w.varint(n.MemMB)
			w.row()
		}
	}
	w.count(len(d.UpsertJobs))
	for i := range d.UpsertJobs {
		w.job(&d.UpsertJobs[i])
	}
	w.count(len(d.RemoveJobs))
	for _, id := range d.RemoveJobs {
		w.str(id)
		w.row()
	}
	w.count(len(d.UpsertApps))
	for i := range d.UpsertApps {
		w.app(&d.UpsertApps[i])
	}
	w.count(len(d.RemoveApps))
	for _, id := range d.RemoveApps {
		w.str(id)
		w.row()
	}
}

func (r *binReader) delta() *SnapshotDelta {
	d := &SnapshotDelta{BaseCycle: r.intv(), Now: r.f64()}
	if r.boolv() {
		n := r.count(2)
		d.Nodes = make([]Node, n)
		for i := range d.Nodes {
			d.Nodes[i] = Node{ID: r.str(), CPUMHz: r.f64(), MemMB: r.varint()}
		}
	}
	if n := r.count(8); n > 0 {
		d.UpsertJobs = make([]Job, n)
		for i := range d.UpsertJobs {
			d.UpsertJobs[i] = r.job()
		}
	}
	if n := r.count(1); n > 0 {
		d.RemoveJobs = make([]string, n)
		for i := range d.RemoveJobs {
			d.RemoveJobs[i] = r.str()
		}
	}
	if n := r.count(8); n > 0 {
		d.UpsertApps = make([]App, n)
		for i := range d.UpsertApps {
			d.UpsertApps[i] = r.app()
		}
	}
	if n := r.count(1); n > 0 {
		d.RemoveApps = make([]string, n)
		for i := range d.RemoveApps {
			d.RemoveApps[i] = r.str()
		}
	}
	return d
}

// EncodePlanRequestBinary writes one plan request in the binary form.
func EncodePlanRequestBinary(w io.Writer, req *PlanRequest) error {
	bw := newBinWriter(w)
	bw.planRequestDoc(req)
	return bw.finish()
}

func (w *binWriter) planRequestDoc(req *PlanRequest) {
	if req.SchemaVersion == 0 {
		req.SchemaVersion = SchemaVersion
	}
	if req.Snapshot != nil && req.Snapshot.SchemaVersion == 0 {
		req.Snapshot.SchemaVersion = SchemaVersion
	}
	w.header(binKindPlanRequest, req.SchemaVersion)
	w.str(req.ClusterID)
	w.boolv(req.Snapshot != nil)
	if req.Snapshot != nil {
		w.uvarint(uint64(req.Snapshot.SchemaVersion))
		w.snapshotBody(req.Snapshot)
	}
	w.boolv(req.Delta != nil)
	if req.Delta != nil {
		w.delta(req.Delta)
	}
	w.str(req.Reply)
	w.intv(req.Shards)
	w.boolv(req.Forecast != nil)
	if req.Forecast != nil {
		w.forecastConfig(req.Forecast)
	}
}

// DecodePlanRequestBinary reads, version-checks and shape-checks one
// binary plan request (the same contract as DecodePlanRequest: the
// embedded snapshot or delta is content-validated by the session).
func DecodePlanRequestBinary(r io.Reader) (*PlanRequest, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("api: binary decode: %w", err)
	}
	br := &binReader{data: data}
	version := br.header(binKindPlanRequest)
	if br.err == nil {
		if err := CheckVersion(version); err != nil {
			return nil, err
		}
	}
	req := &PlanRequest{SchemaVersion: version, ClusterID: br.str()}
	if br.boolv() {
		snapVersion := int(br.uvarint())
		if br.err == nil {
			if err := CheckVersion(snapVersion); err != nil {
				return nil, err
			}
		}
		req.Snapshot = br.snapshotBody(snapVersion)
	}
	if br.boolv() {
		req.Delta = br.delta()
	}
	req.Reply = br.str()
	req.Shards = br.intv()
	if br.boolv() {
		fc := br.forecastConfig()
		req.Forecast = &fc
	}
	if err := br.finish(); err != nil {
		return nil, err
	}
	if (req.Snapshot == nil) == (req.Delta == nil) {
		return nil, fmt.Errorf("api: plan request needs exactly one of snapshot and delta")
	}
	switch req.Reply {
	case "", ReplyFull, ReplyDelta:
	default:
		return nil, fmt.Errorf("api: unknown reply mode %q", req.Reply)
	}
	if req.Shards < 0 || req.Shards > MaxShards {
		return nil, fmt.Errorf("api: shards %d outside [0, %d]", req.Shards, MaxShards)
	}
	if req.Forecast != nil {
		if err := req.Forecast.Validate(); err != nil {
			return nil, err
		}
	}
	return req, nil
}

// PeekPlanRequestClusterBinary reads only the header and cluster ID of
// a binary plan request — the routing sniff a proxy needs — without
// decoding the snapshot or delta behind them (the layout puts the
// cluster ID first for exactly this). The body past the ID is not
// validated; the serving replica remains the authority on request
// shape.
func PeekPlanRequestClusterBinary(data []byte) (string, error) {
	br := &binReader{data: data}
	version := br.header(binKindPlanRequest)
	if br.err == nil {
		if err := CheckVersion(version); err != nil {
			return "", err
		}
	}
	cluster := br.str()
	if br.err != nil {
		return "", br.err
	}
	return cluster, nil
}

// --- PlanResponse ---

// EncodePlanResponseBinary writes one plan response in the binary form.
func EncodePlanResponseBinary(w io.Writer, resp *PlanResponse) error {
	bw := newBinWriter(w)
	bw.planResponseDoc(resp)
	return bw.finish()
}

func (w *binWriter) planResponseDoc(resp *PlanResponse) {
	if resp.SchemaVersion == 0 {
		resp.SchemaVersion = SchemaVersion
	}
	w.header(binKindPlanResponse, resp.SchemaVersion)
	w.str(resp.ClusterID)
	w.intv(resp.Cycle)
	w.str(resp.PlanMode)
	w.boolv(resp.Stats != nil)
	if resp.Stats != nil {
		w.intv(resp.Stats.Full)
		w.intv(resp.Stats.Incremental)
		w.intv(resp.Stats.Replayed)
		w.str(resp.Stats.LastMode)
		w.f64(resp.Stats.LastDemandDeltaMHz)
	}
	w.boolv(resp.Plan != nil)
	if resp.Plan != nil {
		if resp.Plan.SchemaVersion == 0 {
			resp.Plan.SchemaVersion = SchemaVersion
		}
		w.uvarint(uint64(resp.Plan.SchemaVersion))
		w.planBody(resp.Plan)
	}
	w.actions(resp.Delta)
}

// DecodePlanResponseBinary reads and version-checks one binary plan
// response.
func DecodePlanResponseBinary(r io.Reader) (*PlanResponse, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("api: binary decode: %w", err)
	}
	br := &binReader{data: data}
	version := br.header(binKindPlanResponse)
	if br.err == nil {
		if err := CheckVersion(version); err != nil {
			return nil, err
		}
	}
	resp := &PlanResponse{SchemaVersion: version, ClusterID: br.str(), Cycle: br.intv(), PlanMode: br.str()}
	if br.boolv() {
		resp.Stats = &PlanStats{
			Full: br.intv(), Incremental: br.intv(), Replayed: br.intv(),
			LastMode: br.str(), LastDemandDeltaMHz: br.f64(),
		}
	}
	if br.boolv() {
		planVersion := int(br.uvarint())
		if br.err == nil {
			if err := CheckVersion(planVersion); err != nil {
				return nil, err
			}
		}
		resp.Plan = br.planBody(planVersion)
	}
	resp.Delta = br.actions()
	if err := br.finish(); err != nil {
		return nil, err
	}
	return resp, nil
}

// --- Checkpoint ---

// EncodeCheckpointBinary writes one checkpoint in the binary form.
func EncodeCheckpointBinary(w io.Writer, c *Checkpoint) error {
	bw := newBinWriter(w)
	bw.checkpointDoc(c)
	return bw.finish()
}

func (w *binWriter) checkpointDoc(c *Checkpoint) {
	if c.SchemaVersion == 0 {
		c.SchemaVersion = SchemaVersion
	}
	w.header(binKindCheckpoint, c.SchemaVersion)
	w.str(c.ClusterID)
	w.str(c.Controller)
	w.intv(c.Cycle)
	w.boolv(c.HasNow)
	w.f64(c.LastNowSec)
	w.intv(c.Shards)
	w.count(len(c.ShardBounds))
	for _, b := range c.ShardBounds {
		w.intv(b)
	}
	w.intv(c.ShardReshards)
	w.boolv(c.Snapshot != nil)
	if c.Snapshot != nil {
		if c.Snapshot.SchemaVersion == 0 {
			c.Snapshot.SchemaVersion = SchemaVersion
		}
		w.uvarint(uint64(c.Snapshot.SchemaVersion))
		w.snapshotBody(c.Snapshot)
	}
	w.boolv(c.Plan != nil)
	if c.Plan != nil {
		if c.Plan.SchemaVersion == 0 {
			c.Plan.SchemaVersion = SchemaVersion
		}
		w.uvarint(uint64(c.Plan.SchemaVersion))
		w.planBody(c.Plan)
	}
	w.boolv(c.Forecast != nil)
	if c.Forecast != nil {
		w.forecastState(c.Forecast)
	}
}

// DecodeCheckpointBinary reads, version-checks and validates one
// binary checkpoint.
func DecodeCheckpointBinary(r io.Reader) (*Checkpoint, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("api: binary decode: %w", err)
	}
	br := &binReader{data: data}
	version := br.header(binKindCheckpoint)
	if br.err == nil {
		if err := CheckVersion(version); err != nil {
			return nil, err
		}
	}
	c := &Checkpoint{
		SchemaVersion: version, ClusterID: br.str(), Controller: br.str(),
		Cycle: br.intv(), HasNow: br.boolv(), LastNowSec: br.f64(), Shards: br.intv(),
	}
	if n := br.count(1); n > 0 {
		c.ShardBounds = make([]int, n)
		for i := range c.ShardBounds {
			c.ShardBounds[i] = br.intv()
		}
	}
	c.ShardReshards = br.intv()
	if br.boolv() {
		snapVersion := int(br.uvarint())
		if br.err == nil {
			if err := CheckVersion(snapVersion); err != nil {
				return nil, err
			}
		}
		c.Snapshot = br.snapshotBody(snapVersion)
	}
	if br.boolv() {
		planVersion := int(br.uvarint())
		if br.err == nil {
			if err := CheckVersion(planVersion); err != nil {
				return nil, err
			}
		}
		c.Plan = br.planBody(planVersion)
	}
	if br.boolv() {
		c.Forecast = br.forecastState()
	}
	if err := br.finish(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
