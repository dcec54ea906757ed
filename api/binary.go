package api

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"unicode/utf8"
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
// document is never resident whole. Between rows (each element of a
// list: a node, a job, an action, a placement entry) a buffer past
// spill bytes is written out and reused, so the sink sees the
// document's exact bytes in chunks of about that size whatever the
// document's length. Sink errors latch: after the first, nothing more
// is written and finish reports it.
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

func (w *binWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *binWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
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
func (w *binWriter) str(s string) { w.uvarint(uint64(len(s))); w.buf = append(w.buf, s...) }

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
// document. They must be UTF-8: JSON, the canonical form, cannot carry
// anything else, so accepting it would let the codecs disagree.
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
	if !validUTF8(b) {
		r.fail("string at %d is not valid UTF-8", r.off)
		return nil
	}
	r.off += int(n)
	return b
}

// validUTF8 is utf8.Valid with a fast path for the ASCII identifiers
// that make up nearly every string on the wire.
func validUTF8(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return utf8.Valid(b)
		}
	}
	return true
}

// count reads an element count and bounds it by the bytes remaining:
// every element costs at least minBytes on the wire, so a count beyond
// remaining/minBytes is corrupt — rejected before any allocation.
func (r *binReader) count(minBytes int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()/minBytes) {
		r.fail("count %d exceeds remaining input", n)
		return 0
	}
	return int(n)
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

// binCodec walks one binary document field by field in either
// direction. Encoding, w is set and each call writes the field it is
// handed; decoding, r is set and the same call reads the field into
// that place. Each wire type's layout is therefore one walk (binJob,
// binPlan, ...) declared once for both directions, so the encoder and
// decoder cannot disagree. A decode error latches in r like any other:
// a walk never stops early, every later read is a no-op returning zero.
type binCodec struct {
	w *binWriter
	r *binReader
}

// header frames a document: the magic, the binary format version and
// the document kind.
func (c *binCodec) header(kind byte) {
	if c.w != nil {
		c.w.buf = append(append(c.w.buf, binaryMagic[:]...), BinaryFormatVersion, kind)
		return
	}
	r := c.r
	switch {
	case r.remaining() < len(binaryMagic)+2:
		r.fail("truncated header")
	case [4]byte(r.data) != binaryMagic:
		r.fail("bad magic")
	case r.data[4] != BinaryFormatVersion:
		r.fail("format version %d (this build reads exactly %d; fall back to JSON)", r.data[4], BinaryFormatVersion)
	case r.data[5] != kind:
		r.fail("document kind %d, want %d", r.data[5], kind)
	default:
		r.off = len(binaryMagic) + 2
	}
}

// version frames a document's schema version: stamped with
// SchemaVersion when the caller left it zero on encode, checked by
// CheckVersion on decode.
func (c *binCodec) version(v *int) {
	if c.w != nil {
		if *v == 0 {
			*v = SchemaVersion
		}
		c.w.uvarint(uint64(*v))
		return
	}
	*v = int(c.r.uvarint())
	if c.r.err == nil {
		c.r.err = CheckVersion(*v)
	}
}

func (c *binCodec) str(s *string) {
	if c.w != nil {
		c.w.str(*s)
	} else {
		*s = c.r.str()
	}
}

// jobState is str for a job state. One document repeats the same
// three state strings thousands of times; they decode to the constants
// instead of a fresh copy each.
func (c *binCodec) jobState(s *string) {
	if c.w != nil {
		c.w.str(*s)
		return
	}
	switch b := c.r.strBytes(); string(b) {
	case JobPending:
		*s = JobPending
	case JobRunning:
		*s = JobRunning
	case JobSuspended:
		*s = JobSuspended
	default:
		*s = string(b)
	}
}

func (c *binCodec) f64(v *float64) {
	if c.w != nil {
		c.w.f64(*v)
	} else {
		*v = c.r.f64()
	}
}

func (c *binCodec) float(v *Float) { c.f64((*float64)(v)) }

func (c *binCodec) i64(v *int64) {
	if c.w != nil {
		c.w.varint(*v)
	} else {
		*v = c.r.varint()
	}
}

func (c *binCodec) intv(v *int) {
	if c.w != nil {
		c.w.varint(int64(*v))
	} else {
		*v = int(c.r.varint())
	}
}

func (c *binCodec) boolv(v *bool) {
	if c.w != nil {
		c.w.boolv(*v)
	} else {
		*v = c.r.boolv()
	}
}

// present frames an optional part behind a presence byte: it writes has
// when encoding, and reports whether the part follows either way.
func (c *binCodec) present(has bool) bool {
	c.boolv(&has)
	return has
}

// actionType frames an action type as its one-byte code. An unknown
// type encodes as 0, which decoding rejects; FromCorePlan emits none.
func (c *binCodec) actionType(t *string) {
	if c.w != nil {
		c.w.buf = append(c.w.buf, actionCode[*t])
		return
	}
	code := c.r.byteVal()
	name, ok := actionName[code]
	if !ok && c.r.err == nil {
		c.r.fail("unknown action code %d", code)
	}
	*t = name
}

// floatMap frames a map as its entries in strictly increasing key
// order: the writer sorts, the reader rejects any other order as a
// second wire form of the same map.
func (c *binCodec) floatMap(m *map[string]Float) {
	if c.w != nil {
		keys := make([]string, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		c.w.uvarint(uint64(len(keys)))
		for _, k := range keys {
			c.w.str(k)
			c.w.f64(float64((*m)[k]))
		}
		return
	}
	r := c.r
	n := r.count(9)
	if n == 0 {
		return
	}
	out := make(map[string]Float, n)
	prev := ""
	for i := 0; i < n; i++ {
		k, v := r.str(), r.f64()
		if r.err != nil {
			return
		}
		if i > 0 && k <= prev {
			r.fail("map keys not in canonical order (%q after %q)", k, prev)
			return
		}
		prev = k
		out[k] = Float(v)
	}
	*m = out
}

// binSlice frames a slice: its length, then each element through walk,
// a row each. A decoded length is bounded by the bytes remaining at
// minBytes per element before anything is allocated; an empty slice
// leaves *s as it was (nil in a fresh document).
func binSlice[T any](c *binCodec, s *[]T, minBytes int, walk func(*binCodec, *T)) {
	if c.w != nil {
		c.w.uvarint(uint64(len(*s)))
		for i := range *s {
			walk(c, &(*s)[i])
			c.w.row()
		}
		return
	}
	if n := c.r.count(minBytes); n > 0 {
		*s = make([]T, n)
		for i := range *s {
			walk(c, &(*s)[i])
		}
	}
}

// binOpt frames an optional pointer part; decoding allocates it.
func binOpt[T any](c *binCodec, p **T, walk func(*binCodec, *T)) {
	if c.present(*p != nil) {
		if *p == nil {
			*p = new(T)
		}
		walk(c, *p)
	}
}

// encodeBinary writes one document of the given kind through w, then
// finishes w.
func encodeBinary[T any](w *binWriter, kind byte, doc *T, walk func(*binCodec, *T)) error {
	c := &binCodec{w: w}
	c.header(kind)
	walk(c, doc)
	return w.finish()
}

// decodeBinary reads one whole document of the given kind from r,
// requires it to be consumed exactly, then applies check (if any).
func decodeBinary[T any](r io.Reader, kind byte, walk func(*binCodec, *T), check func(*T) error) (*T, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("api: binary decode: %w", err)
	}
	c := &binCodec{r: &binReader{data: data}}
	doc := new(T)
	c.header(kind)
	walk(c, doc)
	if err := c.r.finish(); err != nil {
		return nil, err
	}
	if check != nil {
		if err := check(doc); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// --- Layouts ---

func binSnapshot(c *binCodec, s *Snapshot) {
	c.version(&s.SchemaVersion)
	c.f64(&s.Now)
	binSlice(c, &s.Nodes, 2, binNode)
	binSlice(c, &s.Jobs, 8, binJob)
	binSlice(c, &s.Apps, 8, binApp)
}

func binNode(c *binCodec, n *Node) {
	c.str(&n.ID)
	c.f64(&n.CPUMHz)
	c.i64(&n.MemMB)
}

func binJob(c *binCodec, j *Job) {
	c.str(&j.ID)
	c.str(&j.Class)
	c.jobState(&j.State)
	c.str(&j.Node)
	c.f64(&j.ShareMHz)
	c.boolv(&j.Migrating)
	c.f64(&j.RemainingMHzs)
	c.f64(&j.MaxSpeedMHz)
	c.i64(&j.MemMB)
	c.f64(&j.GoalSec)
	c.f64(&j.SubmittedSec)
	binOpt(c, &j.Utility, binUtilityFn)
}

func binApp(c *binCodec, a *App) {
	c.str(&a.ID)
	c.f64(&a.Lambda)
	c.f64(&a.RTGoalSec)
	c.str(&a.Model.Type)
	c.f64(&a.Model.DemandMHzs)
	c.f64(&a.Model.CoreSpeedMHz)
	binOpt(c, &a.Utility, binUtilityFn)
	c.i64(&a.InstanceMemMB)
	c.f64(&a.MaxPerInstanceMHz)
	c.intv(&a.MinInstances)
	c.intv(&a.MaxInstances)
	binSlice(c, &a.Instances, 9, binInstance)
	c.float(&a.MeasuredRTSec)
}

func binInstance(c *binCodec, in *Instance) {
	c.str(&in.Node)
	c.f64(&in.ShareMHz)
}

func binUtilityFn(c *binCodec, u *UtilityFn) {
	c.str(&u.Type)
	c.f64(&u.Floor)
	c.f64(&u.K)
	binSlice(c, &u.Points, 16, func(c *binCodec, p *Point) {
		c.f64(&p.P)
		c.f64(&p.U)
	})
}

func binPlan(c *binCodec, p *Plan) {
	c.version(&p.SchemaVersion)
	binSlice(c, &p.Actions, 12, binAction)
	binSlice(c, &p.Placement.Jobs, 4, func(c *binCodec, j *JobPlacement) {
		c.str(&j.ID)
		c.jobState(&j.State)
		c.str(&j.Node)
		c.f64(&j.ShareMHz)
	})
	binSlice(c, &p.Placement.Apps, 2, func(c *binCodec, a *AppPlacement) {
		c.str(&a.ID)
		binSlice(c, &a.Instances, 9, binInstance)
	})
	d := &p.Diagnostics
	c.float(&d.EqualizedUtility)
	c.float(&d.HypotheticalJobUtility)
	c.floatMap(&d.ClassHypoUtility)
	c.float(&d.JobDemandMHz)
	c.float(&d.JobTargetMHz)
	c.floatMap(&d.AppPrediction)
	c.floatMap(&d.AppDemandMHz)
	c.floatMap(&d.AppTargetMHz)
}

func binAction(c *binCodec, a *Action) {
	c.actionType(&a.Type)
	c.str(&a.Job)
	c.str(&a.App)
	c.str(&a.Node)
	c.f64(&a.ShareMHz)
}

func binForecastConfig(c *binCodec, f *ForecastConfig) {
	c.str(&f.Predictor)
	c.intv(&f.Window)
	c.f64(&f.HoltAlpha)
	c.f64(&f.HoltBeta)
	c.intv(&f.AROrder)
	binOpt(c, &f.CorrectionAlpha, (*binCodec).f64)
}

func binForecastState(c *binCodec, s *ForecastState) {
	binForecastConfig(c, &s.Config)
	c.boolv(&s.HasNow)
	c.f64(&s.LastNowSec)
	binSlice(c, &s.Apps, 20, func(c *binCodec, a *ForecastApp) {
		c.str(&a.ID)
		binSlice(c, &a.History, 8, (*binCodec).f64)
		c.f64(&a.Factor)
		c.intv(&a.CorrectionSamples)
		c.boolv(&a.HasPred)
		c.f64(&a.PredForSec)
		c.f64(&a.Pred)
	})
}

func binDelta(c *binCodec, d *SnapshotDelta) {
	c.intv(&d.BaseCycle)
	c.f64(&d.Now)
	// Nodes present but empty empties the node list; absent keeps it.
	if c.present(d.Nodes != nil) {
		if d.Nodes == nil {
			d.Nodes = []Node{}
		}
		binSlice(c, &d.Nodes, 2, binNode)
	}
	binSlice(c, &d.UpsertJobs, 8, binJob)
	binSlice(c, &d.RemoveJobs, 1, (*binCodec).str)
	binSlice(c, &d.UpsertApps, 8, binApp)
	binSlice(c, &d.RemoveApps, 1, (*binCodec).str)
}

func binPlanRequest(c *binCodec, req *PlanRequest) {
	c.version(&req.SchemaVersion)
	c.str(&req.ClusterID) // first, for PeekPlanRequestClusterBinary
	binOpt(c, &req.Snapshot, binSnapshot)
	binOpt(c, &req.Delta, binDelta)
	c.str(&req.Reply)
	c.intv(&req.Shards)
	binOpt(c, &req.Forecast, binForecastConfig)
}

func binPlanResponse(c *binCodec, resp *PlanResponse) {
	c.version(&resp.SchemaVersion)
	c.str(&resp.ClusterID)
	c.intv(&resp.Cycle)
	c.str(&resp.PlanMode)
	binOpt(c, &resp.Stats, func(c *binCodec, s *PlanStats) {
		c.intv(&s.Full)
		c.intv(&s.Incremental)
		c.intv(&s.Replayed)
		c.str(&s.LastMode)
		c.f64(&s.LastDemandDeltaMHz)
	})
	binOpt(c, &resp.Plan, binPlan)
	binSlice(c, &resp.Delta, 12, binAction)
}

func binCheckpoint(c *binCodec, ck *Checkpoint) {
	c.version(&ck.SchemaVersion)
	c.str(&ck.ClusterID)
	c.str(&ck.Controller)
	c.intv(&ck.Cycle)
	c.boolv(&ck.HasNow)
	c.f64(&ck.LastNowSec)
	c.intv(&ck.Shards)
	binSlice(c, &ck.ShardBounds, 1, (*binCodec).intv)
	c.intv(&ck.ShardReshards)
	binOpt(c, &ck.Snapshot, binSnapshot)
	binOpt(c, &ck.Plan, binPlan)
	binOpt(c, &ck.Forecast, binForecastState)
}

// --- Documents ---

// EncodeSnapshotBinary writes one snapshot in the binary form,
// stamping the schema version if the caller left it zero.
func EncodeSnapshotBinary(w io.Writer, s *Snapshot) error {
	return encodeBinary(newBinWriter(w), binKindSnapshot, s, binSnapshot)
}

// DecodeSnapshotBinary reads, version-checks and validates one binary
// snapshot.
func DecodeSnapshotBinary(r io.Reader) (*Snapshot, error) {
	return decodeBinary(r, binKindSnapshot, binSnapshot, (*Snapshot).Validate)
}

// EncodePlanBinary writes one plan in the binary form.
func EncodePlanBinary(w io.Writer, p *Plan) error {
	return encodeBinary(newBinWriter(w), binKindPlan, p, binPlan)
}

// DecodePlanBinary reads and version-checks one binary plan.
func DecodePlanBinary(r io.Reader) (*Plan, error) {
	return decodeBinary(r, binKindPlan, binPlan, nil)
}

// EncodePlanRequestBinary writes one plan request in the binary form.
func EncodePlanRequestBinary(w io.Writer, req *PlanRequest) error {
	return encodeBinary(newBinWriter(w), binKindPlanRequest, req, binPlanRequest)
}

// DecodePlanRequestBinary reads, version-checks and shape-checks one
// binary plan request (the same contract as DecodePlanRequest: the
// embedded snapshot or delta is content-validated by the session).
func DecodePlanRequestBinary(r io.Reader) (*PlanRequest, error) {
	return decodeBinary(r, binKindPlanRequest, binPlanRequest, (*PlanRequest).checkShape)
}

// PeekPlanRequestClusterBinary reads only the header and cluster ID of
// a binary plan request — the routing sniff a proxy needs — without
// decoding the snapshot or delta behind them (the layout puts the
// cluster ID first for exactly this). The body past the ID is not
// validated; the serving replica remains the authority on request
// shape.
func PeekPlanRequestClusterBinary(data []byte) (string, error) {
	c := &binCodec{r: &binReader{data: data}}
	var req PlanRequest
	c.header(binKindPlanRequest)
	c.version(&req.SchemaVersion)
	c.str(&req.ClusterID)
	return req.ClusterID, c.r.err
}

// EncodePlanResponseBinary writes one plan response in the binary form.
func EncodePlanResponseBinary(w io.Writer, resp *PlanResponse) error {
	return encodeBinary(newBinWriter(w), binKindPlanResponse, resp, binPlanResponse)
}

// DecodePlanResponseBinary reads and version-checks one binary plan
// response.
func DecodePlanResponseBinary(r io.Reader) (*PlanResponse, error) {
	return decodeBinary(r, binKindPlanResponse, binPlanResponse, nil)
}

// EncodeCheckpointBinary writes one checkpoint in the binary form.
func EncodeCheckpointBinary(w io.Writer, c *Checkpoint) error {
	return encodeBinary(newBinWriter(w), binKindCheckpoint, c, binCheckpoint)
}

// DecodeCheckpointBinary reads, version-checks and validates one
// binary checkpoint.
func DecodeCheckpointBinary(r io.Reader) (*Checkpoint, error) {
	return decodeBinary(r, binKindCheckpoint, binCheckpoint, (*Checkpoint).Validate)
}
