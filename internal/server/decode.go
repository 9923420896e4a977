package server

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Request decoding for POST /v1/query and /v1/query/batch.
//
// The two bodies
//
//	{"cube": "c", "where": {"a": "v", …}}
//	{"cube": "c", "queries": [{"a": "v", …}, …]}
//
// are decoded in one pass, without reflection, into a pooled queryBody.
// The body is read into the scratch's buffer and copied into ONE string;
// the cube name and every predicate key and value are substrings of it,
// so only a string with an escape or invalid UTF-8 allocates its own
// bytes. Each predicate map is a map the scratch owns and reuses,
// cleared when the scratch goes back to the pool.
//
// The contract is encoding/json's: a body is accepted exactly when
// json.Unmarshal into
//
//	struct{ Cube string; Where map[string]string }          // /v1/query
//	struct{ Cube string; Queries []map[string]string }      // /v1/query/batch
//
// succeeds, and it then yields the same cube and the same cells — member
// names matched case-insensitively (Unicode simple folding), unknown
// members of any type validated and skipped, the last of duplicate
// members winning (a repeated "where" or cell object merges into the map
// already there, as Unmarshal reuses it), null leaving a string alone and
// resetting a map or list, invalid UTF-8 and lone surrogates becoming
// U+FFFD, nesting capped at encoding/json's depth of 10000, and nothing
// but whitespace after the object. FuzzDecodeQueryBody holds the decoder
// to json.Unmarshal on every input. Where json.Decoder used to ignore
// trailing bytes after the object, they are now a 400.

// maxQueryBody bounds a /v1/query or /v1/query/batch body: 256 bytes
// for each cell of the largest batch accepted. A longer body is a 413.
const maxQueryBody = maxBatchQueries * 256

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

// Pooling bounds: a scratch keeps at most maxBatchQueries maps and cell
// slots, drops a map that held more than maxPooledCellKeys predicates,
// and is dropped whole when its body buffer outgrew maxPooledBuf.
const maxPooledCellKeys = 64

// queryBody is one decoded request body and the scratch it was decoded
// in. Nothing in it may be retained past putQueryBody; the strings may
// (they are substrings of a string made for this request alone).
type queryBody struct {
	cube  string
	where map[string]string   // /v1/query; nil when absent or null
	cells []map[string]string // /v1/query/batch; a null cell is nil

	buf   []byte              // the raw body
	slots []map[string]string // backing of cells: the cell maps by index
	maps  []map[string]string // every map the scratch owns; maps[:used] are in use
	used  int
	ident []byte // the handlers' identity scratch
}

var bodyPool = sync.Pool{New: func() any { return new(queryBody) }}

func getQueryBody() *queryBody {
	return bodyPool.Get().(*queryBody)
}

// putQueryBody empties the scratch — maps cleared, so no predicate
// string outlives its request — and pools it within the bounds above.
func putQueryBody(qb *queryBody) {
	if cap(qb.buf) > maxPooledBuf {
		return
	}
	kept := qb.maps[:0]
	for i, m := range qb.maps {
		if i < qb.used {
			if len(m) > maxPooledCellKeys {
				continue
			}
			clear(m)
		}
		if len(kept) < maxBatchQueries {
			kept = append(kept, m)
		}
	}
	clear(qb.maps[len(kept):])
	slots := qb.slots[:0]
	if cap(slots) > maxBatchQueries {
		slots = nil
	}
	clear(slots[:cap(slots)])
	*qb = queryBody{buf: qb.buf[:0], slots: slots, maps: kept, ident: qb.ident[:0]}
	bodyPool.Put(qb)
}

// newMap hands out the scratch's next empty map.
func (qb *queryBody) newMap() map[string]string {
	if qb.used == len(qb.maps) {
		qb.maps = append(qb.maps, make(map[string]string))
	}
	m := qb.maps[qb.used]
	qb.used++
	return m
}

// read reads the request body, at most maxQueryBody bytes of it, and
// decodes it as a batch body or a single-query body. A body over the
// limit fails with *http.MaxBytesError.
func (qb *queryBody) read(w http.ResponseWriter, r *http.Request, batch bool) error {
	body := http.MaxBytesReader(w, r.Body, maxQueryBody)
	buf := qb.buf[:0]
	if n := r.ContentLength; n > 0 && n < maxQueryBody {
		buf = slices.Grow(buf, int(n)+1) // +1: room for the read that sees EOF
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			qb.buf = buf
			return err
		}
	}
	qb.buf = buf
	return qb.decode(string(buf), batch)
}

// decode decodes src, a whole request body, into qb.
func (qb *queryBody) decode(src string, batch bool) error {
	d := decoder{s: src, qb: qb}
	d.space()
	switch d.peek() {
	case '{':
		if err := d.body(batch); err != nil {
			return err
		}
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	default:
		return d.wrongType("request body", "an object")
	}
	d.space()
	if d.i < len(d.s) {
		return d.errAt("after the request object")
	}
	return nil
}

// decoder walks one body string; i is the offset of the next byte.
type decoder struct {
	s  string
	i  int
	qb *queryBody
}

// peek returns the next byte, or 0 at the end of the body (0 is never
// valid where peek's result is inspected).
func (d *decoder) peek() byte {
	if d.i < len(d.s) {
		return d.s[d.i]
	}
	return 0
}

func (d *decoder) space() {
	s, i := d.s, d.i
	for i < len(s) && s[i] <= ' ' && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	d.i = i
}

// errAt reports the byte at the cursor as unexpected.
func (d *decoder) errAt(context string) error {
	if d.i >= len(d.s) {
		return fmt.Errorf("unexpected end of JSON input")
	}
	if context == "" {
		return fmt.Errorf("invalid character %q at offset %d", d.s[d.i], d.i)
	}
	return fmt.Errorf("invalid character %q at offset %d %s", d.s[d.i], d.i, context)
}

func (d *decoder) wrongType(what, want string) error {
	if d.i >= len(d.s) {
		return d.errAt("")
	}
	return fmt.Errorf("%s at offset %d must be %s", what, d.i, want)
}

// literal consumes one of true, false, null.
func (d *decoder) literal(lit string) error {
	if !strings.HasPrefix(d.s[d.i:], lit) {
		return fmt.Errorf("invalid literal at offset %d, want %s", d.i, lit)
	}
	d.i += len(lit)
	return nil
}

// body decodes the request object, the cursor on its '{'.
func (d *decoder) body(batch bool) error {
	return d.members(1, func(key string) error {
		switch {
		case strings.EqualFold(key, "cube"):
			return d.cube()
		case batch && strings.EqualFold(key, "queries"):
			return d.queries()
		case !batch && strings.EqualFold(key, "where"):
			return d.cell(&d.qb.where)
		default:
			return d.skip(1)
		}
	})
}

// members walks an object at nesting depth depth, the cursor on its
// '{', calling value with the cursor on each member's value.
func (d *decoder) members(depth int, value func(key string) error) error {
	if depth > maxNestingDepth {
		return fmt.Errorf("exceeded max depth at offset %d", d.i)
	}
	d.i++
	d.space()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.errAt("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.errAt("after object key")
		}
		d.i++
		d.space()
		if err := value(key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case '}':
			d.i++
			return nil
		default:
			return d.errAt("after object key:value pair")
		}
	}
}

// elements walks an array at nesting depth depth, the cursor on its
// '[', calling value with the cursor on each element; it returns the
// element count.
func (d *decoder) elements(depth int, value func(i int) error) (int, error) {
	if depth > maxNestingDepth {
		return 0, fmt.Errorf("exceeded max depth at offset %d", d.i)
	}
	d.i++
	d.space()
	if d.peek() == ']' {
		d.i++
		return 0, nil
	}
	for n := 0; ; {
		if err := value(n); err != nil {
			return 0, err
		}
		n++
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case ']':
			d.i++
			return n, nil
		default:
			return 0, d.errAt("after array element")
		}
	}
}

// cube decodes the "cube" member: a string, or null (which leaves the
// name as it was).
func (d *decoder) cube() error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		d.qb.cube = s
		return err
	case 'n':
		return d.literal("null")
	}
	return d.wrongType(`"cube"`, "a string")
}

// queries decodes the "queries" member into qb.cells. Like Unmarshal
// into a slice, a repeated "queries" decodes cell i into the map cell i
// already had (from this body's earlier lists, longer ones included),
// while null and [] reset the list.
func (d *decoder) queries() error {
	qb := d.qb
	switch d.peek() {
	case 'n':
		qb.cells, qb.slots = nil, qb.slots[:0]
		return d.literal("null")
	case '[':
	default:
		return d.wrongType(`"queries"`, "an array")
	}
	n, err := d.elements(2, func(i int) error {
		if i == len(qb.slots) {
			qb.slots = append(qb.slots, nil)
		}
		return d.cell(&qb.slots[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		qb.slots = qb.slots[:0]
	}
	qb.cells = qb.slots[:n]
	return nil
}

// cell decodes a predicate object — the "where" member or one batch
// cell — into *m: an object merges into the map already there (or a
// fresh one), null sets it to nil. A null predicate value is "".
func (d *decoder) cell(m *map[string]string) error {
	switch d.peek() {
	case 'n':
		*m = nil
		return d.literal("null")
	case '{':
	default:
		return d.wrongType("predicates", "an object")
	}
	if *m == nil {
		*m = d.qb.newMap()
	}
	cell := *m
	// Cells sit at depth 2 ("where") or 3 (a batch cell), far below
	// maxNestingDepth either way.
	return d.members(3, func(key string) error {
		switch d.peek() {
		case '"':
			v, err := d.str()
			cell[key] = v
			return err
		case 'n':
			cell[key] = ""
			return d.literal("null")
		}
		return d.wrongType(fmt.Sprintf("predicate %q", key), "a string")
	})
}

// str decodes a string literal, the cursor on its opening quote. A
// string that needs no rewriting is a substring of the body.
func (d *decoder) str() (string, error) {
	s := d.s
	start := d.i + 1
	for i := start; i < len(s); {
		c := s[i]
		if plainByte[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			d.i = i + 1
			return s[start:i], nil
		case c == '\\':
			return d.strSlow(start)
		case c < 0x20:
			d.i = i
			return "", d.errAt("in string literal")
		default:
			r, n := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && n == 1 {
				return d.strSlow(start)
			}
			i += n
		}
	}
	d.i = len(s)
	return "", d.errAt("")
}

// plainByte marks the bytes a string literal carries through as they
// are: ASCII from the space up, except the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// strSlow decodes a string literal with escapes or invalid UTF-8 from
// start, the offset after its opening quote, into new bytes — with
// encoding/json's rewriting: invalid UTF-8 and unpaired surrogate
// escapes become U+FFFD.
func (d *decoder) strSlow(start int) (string, error) {
	b := make([]byte, 0, min(len(d.s)-start, 64))
	for i := start; i < len(d.s); {
		c := d.s[i]
		switch {
		case c == '"':
			d.i = i + 1
			return string(b), nil
		case c == '\\':
			if i+1 >= len(d.s) {
				d.i = len(d.s)
				return "", d.errAt("")
			}
			switch e := d.s[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, ok := hex4(d.s, i+2)
				if !ok {
					return "", fmt.Errorf("invalid \\u escape at offset %d", i)
				}
				i += 6
				if utf16.IsSurrogate(r) && strings.HasPrefix(d.s[i:], `\u`) {
					if r2, ok := hex4(d.s, i+2); ok {
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							r = dec
							i += 6
						}
					}
				}
				b = utf8.AppendRune(b, r) // an unpaired surrogate encodes as U+FFFD
				continue
			default:
				d.i = i + 1
				return "", d.errAt("in string escape code")
			}
			i += 2
		case c < 0x20:
			d.i = i
			return "", d.errAt("in string literal")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRuneInString(d.s[i:])
			b = utf8.AppendRune(b, r) // U+FFFD for an invalid byte
			i += n
		}
	}
	d.i = len(d.s)
	return "", d.errAt("")
}

// hex4 parses the four hex digits at s[i:].
func hex4(s string, i int) (rune, bool) {
	if i+4 > len(s) {
		return 0, false
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
		v, ok := hexVal(c)
		if !ok {
			return 0, false
		}
		r = r<<4 | v
	}
	return r, true
}

func hexVal(c byte) (rune, bool) {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0'), true
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10), true
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10), true
	}
	return 0, false
}

// skip validates and steps over one value of an unknown member, nested
// depth containers deep.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '"':
		_, err := d.str()
		return err
	case c == '{':
		return d.members(depth+1, func(string) error { return d.skip(depth + 1) })
	case c == '[':
		_, err := d.elements(depth+1, func(int) error { return d.skip(depth + 1) })
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return d.errAt("looking for beginning of value")
}

// number validates a JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.errAt("in numeric literal")
	}
	if d.peek() == '.' {
		d.i++
		if !isDigit(d.peek()) {
			return d.errAt("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !isDigit(d.peek()) {
			return d.errAt("in exponent of numeric literal")
		}
		d.digits()
	}
	return nil
}

func (d *decoder) digits() {
	for isDigit(d.peek()) {
		d.i++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
