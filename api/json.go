package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// JSON through the binary codec's walks. Every field call of a walk
// carries the field's JSON name and omitempty flag, so one walk per wire
// type also writes and reads JSON, without reflection:
//
//   - Writing is byte-identical to json.Marshal plus a newline: fields
//     in struct order, omitempty as encoding/json judges emptiness,
//     encoding/json's float64 format beside Float's, sorted map keys,
//     HTML-escaped strings. Like binary, it streams between rows.
//   - Reading takes the canonical subset, what json.Marshal and these
//     writers produce: members in struct order (unknown ones may
//     follow the known ones of their object, and are validated and
//     skipped), keys in exact case and each once, ASCII strings without
//     escapes, numbers that fit their field. Any other document is
//     decoded whole by encoding/json (decode), so its value or error
//     is what it was before the walks read JSON.

// jsonPlain marks the bytes a string holds as they stand: read, all of
// ASCII but control bytes, quote and backslash; written, not HTML's <, >
// and & either, which encoding/json escapes. It also marks number text.
var jsonPlain = func() (t [256]byte) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = jsonRead | jsonWrite
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = 0, 0, jsonRead, jsonRead, jsonRead
	for _, c := range "+-.0123456789Ee" {
		t[c] |= jsonNumber
	}
	return t
}()

const (
	jsonRead = 1 << iota
	jsonWrite
	jsonNumber // a byte a number's text may hold
	// jsonMaxDepth bounds the reader's nesting; deeper documents are
	// left to encoding/json.
	jsonMaxDepth = 64
)

// jsonWriter writes one JSON document into the streaming buffer of its
// binWriter. A non-finite float64, which JSON cannot carry, latches
// json.Marshal's error: nothing is written after it, nor anything at
// all of a document shorter than the spill size, as with json.Marshal.
type jsonWriter struct {
	binWriter
	more bool // the open object or array holds a value: the next takes a comma
	c    binCodec
}

var jsonWriters = sync.Pool{New: func() any {
	w := new(jsonWriter)
	w.c.jw = w
	return w
}}

// newJSONWriter returns a pooled writer streaming to sink.
func newJSONWriter(sink io.Writer) *jsonWriter {
	w := jsonWriters.Get().(*jsonWriter)
	w.sink, w.spill = sink, binSpillBytes
	return w
}

// encodeJSON writes doc and a newline through w, then pools w.
func encodeJSON[T any](w *jsonWriter, doc *T, walk func(*binCodec, *T)) error {
	w.open('{')
	walk(&w.c, doc)
	w.close('}')
	w.buf = append(w.buf, '\n')
	keep, err := w.drain()
	if w.more = false; keep {
		jsonWriters.Put(w)
	}
	return err
}

// member starts the member tag names — a struct tag: the name, then
// ",omitempty" if an empty field is left out — or, for an empty tag, an
// array element. It reports false, writing nothing, for an empty
// omitempty field, and when w is nil (the codec is not writing JSON).
func (w *jsonWriter) member(tag string, empty bool) bool {
	if w == nil {
		return false
	}
	name, omitempty := strings.CutSuffix(tag, ",omitempty")
	if empty && omitempty {
		return false
	}
	if w.more {
		w.buf = append(w.buf, ',')
	}
	if w.more = true; name != "" {
		w.buf = append(append(append(w.buf, '"'), name...), '"', ':')
	}
	return true
}

func (w *jsonWriter) open(b byte)  { w.buf, w.more = append(w.buf, b), false }
func (w *jsonWriter) close(b byte) { w.buf, w.more = append(w.buf, b), true }

// str writes a string; one json.Marshal would escape is left to it.
func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if jsonPlain[s[i]]&jsonWrite == 0 {
			q, _ := json.Marshal(s)
			w.buf = append(w.buf, q...)
			return
		}
	}
	w.buf = append(append(append(w.buf, '"'), s...), '"')
}

// f64 writes a float64 as encoding/json does: the shortest decimal that
// reads back exactly, in exponent form below 1e-6 and from 1e21.
func (w *jsonWriter) f64(v float64) {
	if !finite(v) {
		if w.err == nil {
			_, err := json.Marshal(v)
			w.err = fmt.Errorf("api: encode: %w", err)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, v, format, -1, 64)
	if n := len(w.buf); format == 'e' && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
		w.buf[n-2] = w.buf[n-1] // e-07 → e-7
		w.buf = w.buf[:n-1]
	}
}

// floatMap writes a map member, its entries in keys' (sorted) order.
func (w *jsonWriter) floatMap(tag string, m map[string]Float, keys []string) {
	if !w.member(tag, len(m) == 0) {
		return
	}
	if m == nil {
		w.buf = append(w.buf, "null"...)
		return
	}
	w.open('{')
	for _, k := range keys {
		w.member("", false)
		w.str(k)
		w.buf = m[k].appendJSON(append(w.buf, ':'))
	}
	w.close('}')
}

// jsonReader reads one JSON document through the walks in one pass: a
// lookup takes the next member of the open object if its key is the
// field's, and otherwise reports the field absent. The members left at
// the object's end must be unknown: one a lookup asked for (out of
// order, twice, in another case) leaves the canonical subset. Errors
// are not reported: the first thing outside the subset sets bad, every
// later call is a no-op, and the caller hands the document to
// encoding/json.
type jsonReader struct {
	data   []byte
	off    int
	bad    bool
	frames []jsonFrame // the open objects
	asked  []string    // the field names looked up in them, a stack
	lists  []any       // element buffers, *jsonList[T]
	buf    bytes.Buffer
	c      binCodec
}

// jsonFrame is one open object.
type jsonFrame struct {
	asked  int  // its first entry in asked
	first  bool // no member read yet
	absent bool // a nested struct whose member is absent: nothing to read
}

var jsonReaders = sync.Pool{New: func() any { return new(jsonReader) }}

// decodeJSON reads one JSON document from src, then applies check. One
// outside the canonical subset, or a read that failed, goes to
// encoding/json as the same bytes (then the same error). Decoded
// strings are copies: the document buffer goes back to the pool.
func decodeJSON[T any](src io.Reader, walk func(*binCodec, *T), check func(*T) error) (*T, error) {
	r := jsonReaders.Get().(*jsonReader)
	defer func() {
		if r.data = nil; r.buf.Cap() <= binPoolMaxBytes {
			jsonReaders.Put(r)
		}
	}()
	r.buf.Reset()
	err := readInto(&r.buf, src)
	doc, ok := readJSON(r, r.buf.Bytes(), walk)
	if !ok || err != nil {
		replay := io.Reader(bytes.NewReader(r.buf.Bytes()))
		if err != nil {
			replay = io.MultiReader(replay, failedReader{err})
		}
		doc = new(T)
		if err := decode(replay, doc); err != nil {
			return nil, err
		}
	}
	if err := check(doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// readJSON reads data, one object and nothing after it but whitespace,
// through walk; false means it is outside the canonical subset.
func readJSON[T any](r *jsonReader, data []byte, walk func(*binCodec, *T)) (*T, bool) {
	r.data, r.off, r.bad, r.c = data, 0, false, binCodec{jr: r}
	r.frames, r.asked = r.frames[:0], r.asked[:0]
	doc := new(T)
	r.ws()
	if r.enter(true) {
		walk(&r.c, doc)
		r.leave()
	}
	r.ws()
	return doc, !r.bad && r.off == len(r.data)
}

// failedReader fails every read with err.
type failedReader struct{ err error }

func (f failedReader) Read([]byte) (int, error) { return 0, f.err }

func (r *jsonReader) fail() { r.bad = true }

func (r *jsonReader) peek() byte {
	if r.off < len(r.data) {
		return r.data[r.off]
	}
	return 0
}

func (r *jsonReader) expect(b byte) {
	if r.peek() != b {
		r.fail()
		return
	}
	r.off++
}

func (r *jsonReader) ws() {
	for c := r.peek(); c == ' ' || c == '\t' || c == '\n' || c == '\r'; c = r.peek() {
		r.off++
	}
}

// literal consumes s if the document has it at off.
func (r *jsonReader) literal(s string) bool {
	if end := r.off + len(s); end <= len(r.data) && string(r.data[r.off:end]) == s {
		r.off = end
		return true
	}
	return false
}

// enter opens the object at off for field lookups or, when its member
// is absent, an empty frame. It reports whether an object was opened.
func (r *jsonReader) enter(present bool) bool {
	if r.bad || present && (r.peek() != '{' || len(r.frames) == jsonMaxDepth) {
		r.fail()
		return false
	}
	if present {
		r.off++
	}
	r.frames = append(r.frames, jsonFrame{asked: len(r.asked), first: true, absent: !present})
	return present
}

// leave closes the open object, validating and skipping the members
// left: each must be unknown, not a field's name in any case
// (encoding/json matches names case-insensitively).
func (r *jsonReader) leave() {
	if r.bad {
		return
	}
	f := &r.frames[len(r.frames)-1]
	for key, ok := r.next(f, ""); ok; key, ok = r.next(f, "") {
		for _, name := range r.asked[f.asked:] {
			if strings.EqualFold(string(key), name) {
				r.fail()
			}
		}
		f.first = false
		r.skip(0)
	}
	if !f.absent {
		r.expect('}')
	}
	r.asked, r.frames = r.asked[:f.asked], r.frames[:len(r.frames)-1]
}

// field positions the reader at the value of the member tag names, if
// it is the open object's next one and not null (which encoding/json
// decodes into a fresh document as nothing). With an empty tag the
// reader stands at an array element already. A nil reader reports
// false: the codec is not reading JSON.
func (r *jsonReader) field(tag string) bool {
	if r == nil || r.bad || tag == "" {
		return r != nil && !r.bad
	}
	name, _ := strings.CutSuffix(tag, ",omitempty")
	f := &r.frames[len(r.frames)-1]
	r.asked = append(r.asked, name)
	save := r.off
	if _, ok := r.next(f, name); ok {
		f.first = false
		return r.peek() != 'n' || !r.literal("null")
	}
	r.off = save
	return false
}

// next reads the open object's next key, leaving the reader at its
// value, or reports false at the closing brace. Given a name, it reads
// only that key, compared in place, and reports false for any other.
func (r *jsonReader) next(f *jsonFrame, name string) ([]byte, bool) {
	if r.ws(); r.bad || f.absent || r.peek() == '}' {
		return nil, false
	}
	if !f.first {
		r.expect(',')
		r.ws()
	}
	var key []byte
	if end := r.off + 1 + len(name); end < len(r.data) && r.data[r.off] == '"' &&
		r.data[end] == '"' && string(r.data[r.off+1:end]) == name {
		key, r.off = r.data[r.off+1:end], end+1
	} else if name != "" {
		return nil, false // another member: leave reads it
	} else {
		key = r.strBytes()
	}
	if r.peek() == ':' {
		r.off++
	} else {
		r.ws()
		r.expect(':')
	}
	r.ws()
	return key, !r.bad
}

// skip validates and consumes one value of any type.
func (r *jsonReader) skip(depth int) {
	switch c := r.peek(); {
	case r.bad || depth == jsonMaxDepth:
		r.fail()
	case c == '[':
		for i := 0; r.elem(i); i++ {
			r.skip(depth + 1)
		}
	case c == '{':
		r.off++
		f := jsonFrame{first: true}
		for _, ok := r.next(&f, ""); ok; _, ok = r.next(&f, "") {
			f.first = false
			r.skip(depth + 1)
		}
		r.expect('}')
	case c == '"':
		r.strBytes()
	case c == 't' || c == 'f':
		r.boolv()
	case c == 'n' && r.literal("null"):
	default:
		r.f64()
	}
}

// elem moves to the array's next element — the first when i is 0 —
// and reports whether there is one; past the last it consumes the
// closing bracket.
func (r *jsonReader) elem(i int) bool {
	if i == 0 {
		r.expect('[')
	}
	if r.ws(); r.bad || r.peek() == ']' {
		r.off++
		return false
	}
	if i > 0 {
		r.expect(',')
		r.ws()
	}
	return !r.bad
}

// jsonList is an element buffer: a list is read into one, then copied
// out at its exact length, so each list is one allocation. The reader
// keeps one per element type.
type jsonList[T any] struct {
	elems []T
	busy  bool
}

// list returns a buffer for a list of T that no open list is using.
func list[T any](r *jsonReader) *jsonList[T] {
	for _, l := range r.lists {
		if b, ok := l.(*jsonList[T]); ok && !b.busy {
			b.busy = true
			return b
		}
	}
	b := &jsonList[T]{busy: true}
	r.lists = append(r.lists, b)
	return b
}

// strBytes reads a string without escapes, control bytes or non-ASCII,
// as a view into the document.
func (r *jsonReader) strBytes() []byte {
	if r.bad || r.peek() != '"' {
		r.fail()
		return nil
	}
	start, end := r.off+1, r.off+1
	for end < len(r.data) && jsonPlain[r.data[end]]&jsonRead != 0 {
		end++
	}
	if end == len(r.data) || r.data[end] != '"' {
		r.fail()
		return nil
	}
	r.off = end + 1
	return r.data[start:end]
}

// number reads the text of a number. What strconv parses and JSON's
// grammar does not allow — a plus sign, leading zeros, a point without
// digits around it — fails here.
func (r *jsonReader) number() []byte {
	i := r.off
	for i < len(r.data) && jsonPlain[r.data[i]]&jsonNumber != 0 {
		i++
	}
	b, d := r.data[r.off:i], bytes.TrimPrefix(r.data[r.off:i], []byte("-"))
	dot := bytes.IndexByte(d, '.')
	if len(d) == 0 || d[0]-'0' > 9 || len(d) > 1 && d[0] == '0' && d[1]-'0' <= 9 || dot >= 0 && (dot+1 == len(d) || d[dot+1]-'0' > 9) {
		r.fail()
	}
	r.off = i
	return b
}

// f64 and int read a number as encoding/json reads one into their
// type; one it would reject (out of range, a fraction for an int)
// fails.
func (r *jsonReader) f64() float64 {
	b := r.number()
	// Up to 15 digits without an exponent, the digits and the power of
	// ten are exact float64s and one division rounds correctly: the
	// value ParseFloat returns, -0 included.
	var mant uint64
	digits, point := 0, -1
	for i, c := range b {
		switch {
		case c-'0' <= 9:
			mant, digits = mant*10+uint64(c-'0'), digits+1
		case c == '.' && point < 0:
			point = digits
		case c != '-' || i > 0:
			digits = 16 // an exponent, or text ParseFloat must judge
		}
	}
	if digits <= 15 && !r.bad {
		v := float64(mant)
		if point >= 0 {
			v /= pow10[digits-point]
		}
		if b[0] == '-' {
			v = -v
		}
		return v
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		r.fail()
	}
	return v
}

var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

func (r *jsonReader) int() int64 {
	v, err := strconv.ParseInt(string(r.number()), 10, 64)
	if err != nil {
		r.fail()
	}
	return v
}

// float reads a Float: a number, or the quoted non-finite values Float
// writes (a number in quotes is left to encoding/json).
func (r *jsonReader) float() Float {
	if r.peek() != '"' {
		return Float(r.f64())
	}
	switch string(r.strBytes()) {
	case "+Inf", "Inf":
		return Float(math.Inf(1))
	case "-Inf":
		return Float(math.Inf(-1))
	case "NaN":
		return Float(math.NaN())
	}
	r.fail()
	return 0
}

func (r *jsonReader) boolv() bool {
	b := r.peek() == 't'
	if !r.literal(strconv.FormatBool(b)) {
		r.fail()
	}
	return b
}

// floatMap reads a map of Floats; a key given twice keeps its last
// value, as with encoding/json.
func (r *jsonReader) floatMap() map[string]Float {
	m := make(map[string]Float)
	r.expect('{')
	f := jsonFrame{first: true}
	for k, ok := r.next(&f, ""); ok; k, ok = r.next(&f, "") {
		f.first = false
		if v := r.float(); !r.bad {
			m[string(k)] = v
		}
	}
	r.expect('}')
	return m
}
