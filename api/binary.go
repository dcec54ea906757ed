package api

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Compact binary codec for the wire schema, negotiated over HTTP via
// Content-Type/Accept (see ContentTypeBinary). JSON remains the default
// encoding: every document has exactly one JSON form, and a peer that
// cannot speak binary loses nothing but bytes. The binary form exists
// for the serve hot path, where even reflection-free JSON of a
// 500-node/5000-job snapshot costs several times the binary codec. The
// golden fixtures (testdata/golden) are binary documents.
//
// Each wire type's layout is one walk (binSnapshot, binJob, ...) that
// drives both codecs in both directions; json.go holds the JSON writer
// and reader the walks also run on.
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

// actionTypes lists the action types in the order of their one-byte
// codes on the binary wire: actionTypes[i] is code i+1. core.ActionKind
// numbers its kinds in the same order, so kind k is code k.
var actionTypes = []string{ActionStartJob, ActionResumeJob, ActionSuspendJob, ActionMigrateJob,
	ActionSetJobShare, ActionAddInstance, ActionRemoveInstance, ActionSetInstanceShare}

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
	keep, err := w.drain()
	if keep {
		binWriters.Put(w)
	}
	return err
}

// drain writes out what is still buffered, readies the writer for its
// next document and reports the first sink error, and whether the
// buffer is small enough to pool.
func (w *binWriter) drain() (keep bool, err error) {
	w.flush()
	err = w.err
	*w = binWriter{buf: w.buf}
	return cap(w.buf) <= binPoolMaxBytes, err
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

// readAll (and readInto, into a buffer of the caller's) is io.ReadAll
// with the buffer sized up front when the reader knows its length (a
// bytes.Reader, a request body announcing its Content-Length): one
// allocation for the document instead of a dozen doublings. The length is a hint, never a limit — shorter and longer
// inputs read correctly — and it is capped, so a peer's claim alone
// cannot make the decoder allocate much more than maxReadPresize.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	err := readInto(&buf, r)
	return buf.Bytes(), err
}

func readInto(buf *bytes.Buffer, r io.Reader) error {
	if sized, ok := r.(interface{ Len() int }); ok {
		// MinRead to spare: ReadFrom sees EOF without growing the buffer.
		buf.Grow(min(max(sized.Len(), 0), maxReadPresize) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return err
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

// binCodec walks one document field by field in one of four modes:
// writing or reading the binary layout (w or r set), or writing or
// reading JSON (jw or jr set). Each field call carries the field's JSON
// name and omitempty flag, spelled as its struct tag, and the place it
// is written from or read into, so each wire type's layout is one walk
// (binJob, binPlan, ...) for both codecs in both directions: no encoder
// and decoder can disagree. A decode error latches in r or jr: a walk
// never stops early, and every later read is a no-op returning zero.
type binCodec struct {
	w  *binWriter
	r  *binReader
	jw *jsonWriter
	jr *jsonReader
}

// header frames a binary document: the magic, the binary format
// version and the document kind. JSON has no header.
func (c *binCodec) header(kind byte) {
	if c.w != nil {
		c.w.buf = append(append(c.w.buf, binaryMagic[:]...), BinaryFormatVersion, kind)
		return
	}
	switch r := c.r; {
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

// version frames a document's schema version. In binary it is stamped
// with SchemaVersion when the caller left it zero on encode and checked
// by CheckVersion on decode; in JSON it is a plain field, stamped and
// checked by the JSON Encode* and Decode* functions as before.
func (c *binCodec) version(v *int) {
	switch {
	case c.w != nil:
		if *v == 0 {
			*v = SchemaVersion
		}
		c.w.uvarint(uint64(*v))
	case c.r != nil:
		if *v = int(c.r.uvarint()); c.r.err == nil {
			c.r.err = CheckVersion(*v)
		}
	default:
		c.intv("schemaVersion", v)
	}
}

func (c *binCodec) str(tag string, s *string) {
	switch {
	case c.w != nil:
		c.w.str(*s)
	case c.r != nil:
		*s = c.r.str()
	default:
		c.jsonField(tag, s)
	}
}

// jsonField frames one scalar field in JSON, written or read. The
// per-type methods hand their JSON cases to it, which keeps their binary
// paths as small as they were before the walks spoke JSON.
func (c *binCodec) jsonField(tag string, v any) {
	switch v := v.(type) {
	case *string:
		if c.jw.member(tag, *v == "") {
			c.jw.str(*v)
		} else if c.jr.field(tag) {
			*v = string(c.jr.strBytes())
		}
	case *float64:
		if c.jw.member(tag, *v == 0) {
			c.jw.f64(*v)
		} else if c.jr.field(tag) {
			*v = c.jr.f64()
		}
	case *Float:
		if c.jw.member(tag, *v == 0) {
			c.jw.buf = v.appendJSON(c.jw.buf)
		} else if c.jr.field(tag) {
			*v = c.jr.float()
		}
	case *int64:
		if c.jw.member(tag, *v == 0) {
			c.jw.buf = strconv.AppendInt(c.jw.buf, *v, 10)
		} else if c.jr.field(tag) {
			*v = c.jr.int()
		}
	case *bool:
		if c.jw.member(tag, !*v) {
			c.jw.buf = strconv.AppendBool(c.jw.buf, *v)
		} else if c.jr.field(tag) {
			*v = c.jr.boolv()
		}
	}
}

// interned is str for a value from a small set of names (job states,
// action types). One document repeats them thousands of times; they
// decode to the constants instead of a fresh copy each.
func (c *binCodec) interned(tag string, s *string, names []string) {
	var b []byte
	switch {
	case c.r != nil:
		b = c.r.strBytes()
	case c.jr.field(tag):
		b = c.jr.strBytes()
	default:
		c.str(tag, s)
		return
	}
	for _, name := range names {
		if string(b) == name {
			*s = name
			return
		}
	}
	*s = string(b)
}

var jobStates = []string{JobPending, JobRunning, JobSuspended}

func (c *binCodec) f64(tag string, v *float64) {
	switch {
	case c.w != nil:
		c.w.f64(*v)
	case c.r != nil:
		*v = c.r.f64()
	default:
		c.jsonField(tag, v)
	}
}

// float is f64 for a Float, which JSON writes in its own format and
// reads quoted when non-finite.
func (c *binCodec) float(tag string, v *Float) {
	if c.w != nil || c.r != nil {
		c.f64(tag, (*float64)(v))
	} else {
		c.jsonField(tag, v)
	}
}

func (c *binCodec) i64(tag string, v *int64) {
	switch {
	case c.w != nil:
		c.w.varint(*v)
	case c.r != nil:
		*v = c.r.varint()
	default:
		c.jsonField(tag, v)
	}
}

func (c *binCodec) intv(tag string, v *int) {
	switch i := int64(*v); {
	case c.w != nil:
		c.w.varint(i)
	case c.r != nil:
		*v = int(c.r.varint())
	default:
		if c.i64(tag, &i); c.jr != nil {
			if *v = int(i); int64(*v) != i {
				c.jr.fail() // outside int on this platform: encoding/json's error
			}
		}
	}
}

func (c *binCodec) boolv(tag string, v *bool) {
	switch {
	case c.w != nil:
		c.w.boolv(*v)
	case c.r != nil:
		*v = c.r.boolv()
	default:
		c.jsonField(tag, v)
	}
}

// present frames an optional binary part behind a presence byte: it
// writes has when encoding, and reports whether the part follows either
// way. A JSON part frames its own presence (a member or none), so
// there the part always follows.
func (c *binCodec) present(has bool) bool {
	if c.w != nil || c.r != nil {
		c.boolv("", &has)
	}
	return has || c.jw != nil || c.jr != nil
}

// begin and end frame a nested struct held by value (an app's model, a
// plan's placement and diagnostics): a JSON object, nothing in binary.
func (c *binCodec) begin(tag string) {
	if c.jw != nil {
		c.jw.member(tag, false)
		c.jw.open('{')
	} else if c.jr != nil {
		c.jr.enter(c.jr.field(tag))
	}
}

func (c *binCodec) end() {
	if c.jw != nil {
		c.jw.close('}')
	} else if c.jr != nil {
		c.jr.leave()
	}
}

// actionType frames an action type: its one-byte code in binary, its
// name in JSON. An unknown type encodes as 0 in binary, which decoding
// rejects; FromCorePlan emits none.
func (c *binCodec) actionType(tag string, t *string) {
	switch {
	case c.w != nil:
		c.w.buf = append(c.w.buf, byte(slices.Index(actionTypes, *t)+1))
	case c.r != nil:
		code := c.r.byteVal()
		if code == 0 || int(code) > len(actionTypes) {
			if c.r.err == nil {
				c.r.fail("unknown action code %d", code)
			}
			*t = ""
			return
		}
		*t = actionTypes[code-1]
	default:
		c.interned(tag, t, actionTypes)
	}
}

// optF64 frames an optional number like binOpt an optional object.
func (c *binCodec) optF64(tag string, p **float64) {
	switch {
	case c.w != nil || c.r != nil:
		if c.present(*p != nil) {
			if *p == nil {
				*p = new(float64)
			}
			c.f64("", *p)
		}
	case c.jw.member(tag, *p == nil):
		c.jw.f64(**p)
	case c.jr.field(tag):
		*p = new(float64)
		**p = c.jr.f64()
	}
}

// floatMap frames a map as its entries in strictly increasing key
// order: the writers sort, the binary reader rejects any other order as
// a second wire form of the same map (JSON reads any order, as
// encoding/json does).
func (c *binCodec) floatMap(tag string, m *map[string]Float) {
	switch {
	case c.w != nil, c.jw != nil:
		keys := make([]string, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if c.jw != nil {
			c.jw.floatMap(tag, *m, keys)
			return
		}
		c.w.uvarint(uint64(len(keys)))
		for _, k := range keys {
			c.w.str(k)
			c.w.f64(float64((*m)[k]))
		}
		return
	case c.jr.field(tag):
		*m = c.jr.floatMap()
		return
	case c.r == nil:
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

// binSlice frames a list of objects, each walked by walk, a row each;
// binValues a list of bare values, each framed by field. A decoded
// binary length is bounded by the bytes remaining at minBytes per
// element before anything is allocated; an empty binary list leaves *s
// as it was (nil in a fresh document), while JSON reads [] as an empty
// list and null or no member as nil, as encoding/json does.
func binSlice[T any](c *binCodec, tag string, s *[]T, minBytes int, walk func(*binCodec, *T)) {
	binList(c, tag, s, minBytes, true, walk)
}

func binValues[T any](c *binCodec, tag string, s *[]T, minBytes int, field func(*binCodec, string, *T)) {
	binList(c, tag, s, minBytes, false, func(c *binCodec, v *T) { field(c, "", v) })
}

func binList[T any](c *binCodec, tag string, s *[]T, minBytes int, objects bool, walk func(*binCodec, *T)) {
	switch {
	case c.w != nil:
		c.w.uvarint(uint64(len(*s)))
		for i := range *s {
			walk(c, &(*s)[i])
			c.w.row()
		}
	case c.r != nil:
		if n := c.r.count(minBytes); n > 0 {
			*s = make([]T, n)
			for i := range *s {
				walk(c, &(*s)[i])
			}
		}
	case c.jw.member(tag, len(*s) == 0):
		if *s == nil {
			c.jw.buf = append(c.jw.buf, "null"...)
			return
		}
		c.jw.open('[')
		for i := range *s {
			if objects && c.jw.member("", false) {
				c.jw.open('{')
			}
			if walk(c, &(*s)[i]); objects {
				c.jw.close('}')
			}
			c.jw.row()
		}
		c.jw.close(']')
	case c.jr.field(tag):
		buf := list[T](c.jr)
		for i := 0; c.jr.elem(i); i++ {
			if buf.elems = append(buf.elems, *new(T)); !objects || c.jr.enter(true) {
				walk(c, &buf.elems[i])
			}
			if objects {
				c.jr.leave()
			}
		}
		*s = append(make([]T, 0, len(buf.elems)), buf.elems...)
		clear(buf.elems)
		buf.elems, buf.busy = buf.elems[:0], false
	}
}

// binOpt frames an optional object held by pointer: a presence byte in
// binary, a member or none in JSON. Decoding allocates it.
func binOpt[T any](c *binCodec, tag string, p **T, walk func(*binCodec, *T)) {
	switch {
	case c.w != nil || c.r != nil:
		if c.present(*p != nil) {
			if *p == nil {
				*p = new(T)
			}
			walk(c, *p)
		}
	case c.jw.member(tag, *p == nil):
		if *p == nil {
			c.jw.buf = append(c.jw.buf, "null"...)
			return
		}
		c.jw.open('{')
		walk(c, *p)
		c.jw.close('}')
	case c.jr.field(tag) && c.jr.enter(true):
		*p = new(T)
		walk(c, *p)
		c.jr.leave()
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
	c.f64("now", &s.Now)
	binSlice(c, "nodes", &s.Nodes, 2, binNode)
	binSlice(c, "jobs,omitempty", &s.Jobs, 8, binJob)
	binSlice(c, "apps,omitempty", &s.Apps, 8, binApp)
}

func binNode(c *binCodec, n *Node) {
	c.str("id", &n.ID)
	c.f64("cpuMHz", &n.CPUMHz)
	c.i64("memMB", &n.MemMB)
}

func binJob(c *binCodec, j *Job) {
	c.str("id", &j.ID)
	c.str("class,omitempty", &j.Class)
	c.interned("state", &j.State, jobStates)
	c.str("node,omitempty", &j.Node)
	c.f64("shareMHz,omitempty", &j.ShareMHz)
	c.boolv("migrating,omitempty", &j.Migrating)
	c.f64("remainingMHzs", &j.RemainingMHzs)
	c.f64("maxSpeedMHz", &j.MaxSpeedMHz)
	c.i64("memMB", &j.MemMB)
	c.f64("goalSec", &j.GoalSec)
	c.f64("submittedSec", &j.SubmittedSec)
	binOpt(c, "utility,omitempty", &j.Utility, binUtilityFn)
}

func binApp(c *binCodec, a *App) {
	c.str("id", &a.ID)
	c.f64("lambda", &a.Lambda)
	c.f64("rtGoalSec", &a.RTGoalSec)
	c.begin("model")
	c.str("type", &a.Model.Type)
	c.f64("demandMHzs", &a.Model.DemandMHzs)
	c.f64("coreSpeedMHz,omitempty", &a.Model.CoreSpeedMHz)
	c.end()
	binOpt(c, "utility,omitempty", &a.Utility, binUtilityFn)
	c.i64("instanceMemMB", &a.InstanceMemMB)
	c.f64("maxPerInstanceMHz", &a.MaxPerInstanceMHz)
	c.intv("minInstances,omitempty", &a.MinInstances)
	c.intv("maxInstances,omitempty", &a.MaxInstances)
	binSlice(c, "instances,omitempty", &a.Instances, 9, binInstance)
	c.float("measuredRTSec,omitempty", &a.MeasuredRTSec)
}

func binInstance(c *binCodec, in *Instance) {
	c.str("node", &in.Node)
	c.f64("shareMHz", &in.ShareMHz)
}

func binUtilityFn(c *binCodec, u *UtilityFn) {
	c.str("type", &u.Type)
	c.f64("floor,omitempty", &u.Floor)
	c.f64("k,omitempty", &u.K)
	binSlice(c, "points,omitempty", &u.Points, 16, func(c *binCodec, p *Point) {
		c.f64("p", &p.P)
		c.f64("u", &p.U)
	})
}

func binPlan(c *binCodec, p *Plan) {
	c.version(&p.SchemaVersion)
	binSlice(c, "actions,omitempty", &p.Actions, 12, binAction)
	c.begin("placement")
	binSlice(c, "jobs,omitempty", &p.Placement.Jobs, 4, func(c *binCodec, j *JobPlacement) {
		c.str("id", &j.ID)
		c.interned("state", &j.State, jobStates)
		c.str("node,omitempty", &j.Node)
		c.f64("shareMHz,omitempty", &j.ShareMHz)
	})
	binSlice(c, "apps,omitempty", &p.Placement.Apps, 2, func(c *binCodec, a *AppPlacement) {
		c.str("id", &a.ID)
		binSlice(c, "instances,omitempty", &a.Instances, 9, binInstance)
	})
	c.end()
	d := &p.Diagnostics
	c.begin("diagnostics")
	c.float("equalizedUtility", &d.EqualizedUtility)
	c.float("hypotheticalJobUtility", &d.HypotheticalJobUtility)
	c.floatMap("classHypoUtility,omitempty", &d.ClassHypoUtility)
	c.float("jobDemandMHz", &d.JobDemandMHz)
	c.float("jobTargetMHz", &d.JobTargetMHz)
	c.floatMap("appPrediction,omitempty", &d.AppPrediction)
	c.floatMap("appDemandMHz,omitempty", &d.AppDemandMHz)
	c.floatMap("appTargetMHz,omitempty", &d.AppTargetMHz)
	c.end()
}

func binAction(c *binCodec, a *Action) {
	c.actionType("type", &a.Type)
	c.str("job,omitempty", &a.Job)
	c.str("app,omitempty", &a.App)
	c.str("node,omitempty", &a.Node)
	c.f64("shareMHz,omitempty", &a.ShareMHz)
}

func binForecastConfig(c *binCodec, f *ForecastConfig) {
	c.str("predictor,omitempty", &f.Predictor)
	c.intv("window,omitempty", &f.Window)
	c.f64("holtAlpha,omitempty", &f.HoltAlpha)
	c.f64("holtBeta,omitempty", &f.HoltBeta)
	c.intv("arOrder,omitempty", &f.AROrder)
	c.optF64("correctionAlpha,omitempty", &f.CorrectionAlpha)
}

func binForecastState(c *binCodec, s *ForecastState) {
	c.begin("config")
	binForecastConfig(c, &s.Config)
	c.end()
	c.boolv("hasNow,omitempty", &s.HasNow)
	c.f64("lastNowSec,omitempty", &s.LastNowSec)
	binSlice(c, "apps,omitempty", &s.Apps, 20, func(c *binCodec, a *ForecastApp) {
		c.str("id", &a.ID)
		binValues(c, "history,omitempty", &a.History, 8, (*binCodec).f64)
		c.f64("factor,omitempty", &a.Factor)
		c.intv("correctionSamples,omitempty", &a.CorrectionSamples)
		c.boolv("hasPred,omitempty", &a.HasPred)
		c.f64("predForSec,omitempty", &a.PredForSec)
		c.f64("pred,omitempty", &a.Pred)
	})
}

func binDelta(c *binCodec, d *SnapshotDelta) {
	c.intv("baseCycle", &d.BaseCycle)
	c.f64("now", &d.Now)
	// Nodes present but empty is an empty node list (which ApplyTo
	// rejects); absent keeps the base's. In JSON the member says which
	// ("nodes":[] against none), though the writer, like json.Marshal's
	// omitempty, writes neither.
	if c.present(d.Nodes != nil) {
		if d.Nodes == nil && c.r != nil {
			d.Nodes = []Node{}
		}
		binSlice(c, "nodes,omitempty", &d.Nodes, 2, binNode)
	}
	binSlice(c, "upsertJobs,omitempty", &d.UpsertJobs, 8, binJob)
	binValues(c, "removeJobs,omitempty", &d.RemoveJobs, 1, (*binCodec).str)
	binSlice(c, "upsertApps,omitempty", &d.UpsertApps, 8, binApp)
	binValues(c, "removeApps,omitempty", &d.RemoveApps, 1, (*binCodec).str)
}

func binPlanRequest(c *binCodec, req *PlanRequest) {
	c.version(&req.SchemaVersion)
	c.str("clusterId,omitempty", &req.ClusterID) // first, for PeekPlanRequestClusterBinary
	binOpt(c, "snapshot,omitempty", &req.Snapshot, binSnapshot)
	binOpt(c, "delta,omitempty", &req.Delta, binDelta)
	c.str("reply,omitempty", &req.Reply)
	c.intv("shards,omitempty", &req.Shards)
	binOpt(c, "forecast,omitempty", &req.Forecast, binForecastConfig)
}

func binPlanResponse(c *binCodec, resp *PlanResponse) {
	c.version(&resp.SchemaVersion)
	c.str("clusterId", &resp.ClusterID)
	c.intv("cycle", &resp.Cycle)
	c.str("planMode,omitempty", &resp.PlanMode)
	binOpt(c, "stats,omitempty", &resp.Stats, func(c *binCodec, s *PlanStats) {
		c.intv("full", &s.Full)
		c.intv("incremental", &s.Incremental)
		c.intv("replayed", &s.Replayed)
		c.str("lastMode", &s.LastMode)
		c.f64("lastDemandDeltaMHz", &s.LastDemandDeltaMHz)
	})
	binOpt(c, "plan,omitempty", &resp.Plan, binPlan)
	binSlice(c, "delta,omitempty", &resp.Delta, 12, binAction)
}

func binCheckpoint(c *binCodec, ck *Checkpoint) {
	c.version(&ck.SchemaVersion)
	c.str("clusterId", &ck.ClusterID)
	c.str("controller,omitempty", &ck.Controller)
	c.intv("cycle", &ck.Cycle)
	c.boolv("hasNow,omitempty", &ck.HasNow)
	c.f64("lastNowSec,omitempty", &ck.LastNowSec)
	c.intv("shards,omitempty", &ck.Shards)
	binValues(c, "shardBounds,omitempty", &ck.ShardBounds, 1, (*binCodec).intv)
	c.intv("shardReshards,omitempty", &ck.ShardReshards)
	binOpt(c, "snapshot,omitempty", &ck.Snapshot, binSnapshot)
	binOpt(c, "plan,omitempty", &ck.Plan, binPlan)
	binOpt(c, "forecast,omitempty", &ck.Forecast, binForecastState)
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
	c.str("clusterId,omitempty", &req.ClusterID)
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
