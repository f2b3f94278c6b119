// Request decoding: the /plan, /explain and /execute bodies are read
// into a pooled buffer and decoded by hand. The request types are a
// closed set of string, int and bool members, so decoding is one pass
// of a JSON scanner that stores each known member and validates and
// skips everything else. It accepts what encoding/json's Decoder
// accepted behind http.MaxBytesReader, decodes it to the same value,
// and refuses the rest with the same status —
// FuzzDecodeRequestMatchesEncodingJSON holds it to that:
//
//   - member names match as bytes.EqualFold matches them, so "ſql" is
//     sql and "chunKRows" (a Kelvin sign) is chunkRows;
//   - the last of duplicate members wins, null leaves a member as it
//     was, and unknown members are skipped;
//   - an int member takes only an integer literal in range and a bool
//     member only true or false (anything else is a 400), and a string
//     decodes as encoding/json decodes it: invalid UTF-8 and unpaired
//     surrogates become U+FFFD;
//   - anything but whitespace after the value is a 400;
//   - a body longer than maxRequestBytes is a 413 unless its first
//     maxRequestBytes bytes already make it a 400.

package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxRequestBytes bounds a request body: the largest statement the
// binder accepts (64 relations) is a few KiB, so 1 MiB never refuses a
// real query and a client cannot make the server buffer more.
const maxRequestBytes = 1 << 20

// maxDepth is encoding/json's nesting limit: a value nested deeper is
// a syntax error.
const maxDepth = 10000

// decodeBody decodes the JSON request body into v, a *PlanRequest or an
// *ExecuteRequest, reading at most maxRequestBytes of it. On failure it
// returns the status to answer with: 413 for an oversized body, 400 for
// a malformed one.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	bp := bufPool.Get()
	defer bufPool.Put(bp)
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	buf, too := (*bp)[:0], false
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			too = true
			break
		}
		if err != nil {
			*bp = buf
			return http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err)
		}
	}
	*bp = buf
	return decodeRequest(buf, too, v)
}

// member is one member of a request type, by its wire name; one of str,
// num and flag points at its field.
type member struct {
	name string
	str  *string
	num  *int
	flag *bool
}

// decodeRequest decodes data, a request body, into v; too says the body
// went on past data, which then holds its first maxRequestBytes bytes.
// It returns the status and error decodeBody answers with.
func decodeRequest(data []byte, too bool, v any) (int, error) {
	var buf [8]member
	ms := buf[:0]
	switch v := v.(type) {
	case *PlanRequest:
		ms = append(ms, member{name: "sql", str: &v.SQL}, member{name: "timeoutMs", num: &v.TimeoutMs})
	case *ExecuteRequest:
		ms = append(ms, member{name: "sql", str: &v.SQL}, member{name: "dataset", str: &v.Dataset},
			member{name: "maxRows", num: &v.MaxRows}, member{name: "timeoutMs", num: &v.TimeoutMs},
			member{name: "maxDOP", num: &v.MaxDOP}, member{name: "stream", flag: &v.Stream},
			member{name: "chunkRows", num: &v.ChunkRows}, member{name: "analyze", flag: &v.Analyze})
	default:
		panic(fmt.Sprintf("server: no request decoder for %T", v))
	}
	d := reqDecoder{data: data, too: too}
	err := d.top(ms)
	switch {
	case err == nil:
		return 0, nil
	case err == errIncomplete && too:
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxRequestBytes)
	case err == errIncomplete:
		return http.StatusBadRequest, errors.New("invalid request body: unexpected end of JSON input")
	default:
		return http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err)
	}
}

// errIncomplete is the scanner running out of data in the middle of a
// value, or where one must start.
var errIncomplete = errors.New("incomplete")

// reqDecoder scans one request body. Its methods return errIncomplete
// only where every byte up to the end of data was valid so far: a
// byte that no continuation could make valid is reported as a syntax
// error at once, which is what decides between 400 and 413.
type reqDecoder struct {
	data  []byte
	too   bool // the body went on past data
	pos   int
	depth int
	// typeErr is the first member whose value has the wrong type; like
	// encoding/json the decoder reports it only once the whole value has
	// scanned.
	typeErr error
}

func (d *reqDecoder) syntax(what string) error {
	if d.pos >= len(d.data) {
		return errIncomplete
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", d.data[d.pos], what, d.pos)
}

// top decodes the body's one value into ms and checks what follows it.
func (d *reqDecoder) top(ms []member) error {
	d.ws()
	if d.pos >= len(d.data) {
		return errIncomplete
	}
	switch c := d.data[d.pos]; c {
	case '{':
		if err := d.object(ms); err != nil {
			return err
		}
	default:
		if err := d.value(nil); err != nil {
			return err
		}
		// A scalar ends only where something follows it, or the body does.
		if d.pos == len(d.data) && d.too {
			return errIncomplete
		}
		if c != 'n' && d.typeErr == nil {
			d.typeErr = errors.New("the request is not a JSON object")
		}
	}
	if d.typeErr != nil {
		return d.typeErr
	}
	d.ws()
	if d.pos == len(d.data) {
		if d.too {
			return errIncomplete
		}
		return nil
	}
	// encoding/json reads a second scalar to its end before it refuses it,
	// so one that runs to the end of data is a 413 there too.
	end := d.pos
	switch c := d.data[d.pos]; {
	case c == '"' || c == '-' || c >= '0' && c <= '9' || c == 't' || c == 'f' || c == 'n':
		err := d.value(nil)
		if d.too && (err == errIncomplete || err == nil && d.pos == len(d.data)) {
			return errIncomplete
		}
	}
	d.pos = end
	return fmt.Errorf("invalid character %q after the JSON value (offset %d)", d.data[end], end)
}

func (d *reqDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// object scans the object at pos, storing the members ms names; a nil ms
// skips every member.
func (d *reqDecoder) object(ms []member) error {
	if err := d.open(); err != nil {
		return err
	}
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if d.pos >= len(d.data) || d.data[d.pos] != '"' {
			return d.syntax("looking for the beginning of an object key")
		}
		key, err := d.str(ms != nil)
		if err != nil {
			return err
		}
		var m *member
		for i := range ms {
			if bytes.EqualFold(key, []byte(ms[i].name)) {
				m = &ms[i]
				break
			}
		}
		d.ws()
		if d.pos >= len(d.data) || d.data[d.pos] != ':' {
			return d.syntax("after an object key")
		}
		d.pos++
		if err := d.value(m); err != nil {
			return err
		}
		d.ws()
		if d.pos >= len(d.data) {
			return errIncomplete
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
			d.ws()
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntax("after an object member")
		}
	}
}

// array scans the array at pos.
func (d *reqDecoder) array() error {
	if err := d.open(); err != nil {
		return err
	}
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := d.value(nil); err != nil {
			return err
		}
		d.ws()
		if d.pos >= len(d.data) {
			return errIncomplete
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntax("after an array element")
		}
	}
}

// open enters the object or array at pos.
func (d *reqDecoder) open() error {
	if d.depth++; d.depth > maxDepth {
		return d.syntax("past the maximum nesting depth")
	}
	d.pos++
	return nil
}

// value scans the value at pos (after any whitespace) into m's field, or
// skips it when m is nil. A null leaves the field as it was; a value of
// another type than the field's is a type error.
func (d *reqDecoder) value(m *member) error {
	d.ws()
	if d.pos >= len(d.data) {
		return errIncomplete
	}
	c := d.data[d.pos]
	kind := "" // of a value m cannot hold
	switch {
	case c == '{':
		kind = "an object"
		if err := d.object(nil); err != nil {
			return err
		}
	case c == '[':
		kind = "an array"
		if err := d.array(); err != nil {
			return err
		}
	case c == '"':
		s, err := d.str(m != nil && m.str != nil)
		if err != nil {
			return err
		}
		if m != nil && m.str != nil {
			*m.str = string(s)
		} else {
			kind = "a string"
		}
	case c == 't' || c == 'f':
		lit := "false"
		if c == 't' {
			lit = "true"
		}
		if err := d.literal(lit); err != nil {
			return err
		}
		if m != nil && m.flag != nil {
			*m.flag = c == 't'
		} else {
			kind = "a bool"
		}
	case c == 'n':
		return d.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		start := d.pos
		if err := d.number(); err != nil {
			return err
		}
		if m == nil {
			return nil
		}
		if n, ok := parseInt(d.data[start:d.pos]); m.num != nil && ok {
			*m.num = n
		} else {
			kind = "the number " + string(d.data[start:d.pos])
		}
	default:
		return d.syntax("looking for the beginning of a value")
	}
	if m != nil && kind != "" && d.typeErr == nil {
		d.typeErr = fmt.Errorf("%s cannot be the value of %q", kind, m.name)
	}
	return nil
}

// literal scans lit at pos.
func (d *reqDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos >= len(d.data) || d.data[d.pos] != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

// number scans the number at pos: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *reqDecoder) number() error {
	if d.data[d.pos] == '-' {
		d.pos++
	}
	if d.pos >= len(d.data) {
		return errIncomplete
	}
	switch c := d.data[d.pos]; {
	case c == '0':
		d.pos++
	case c >= '1' && c <= '9':
		d.digits()
	default:
		return d.syntax("in numeric literal")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if err := d.someDigits(); err != nil {
			return err
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if err := d.someDigits(); err != nil {
			return err
		}
	}
	return nil
}

func (d *reqDecoder) digits() {
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		d.pos++
	}
}

// someDigits scans one digit or more.
func (d *reqDecoder) someDigits() error {
	if d.pos >= len(d.data) || d.data[d.pos] < '0' || d.data[d.pos] > '9' {
		return d.syntax("in numeric literal")
	}
	d.digits()
	return nil
}

// parseInt is strconv.ParseInt(b, 10, 64) over a valid JSON number,
// which encoding/json requires of an int member's value.
func parseInt(b []byte) (int, bool) {
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	var u uint64
	for _, c := range b {
		if c < '0' || c > '9' || u > (1<<63)/10 {
			return 0, false // a fraction, an exponent, or too many digits
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return int(-u), true
	case !neg && u < 1<<63:
		return int(u), true
	}
	return 0, false
}

// str scans the string at pos and, when keep is set, returns its
// decoded bytes: a slice of data when the string holds no escape and no
// invalid UTF-8, a fresh slice otherwise.
func (d *reqDecoder) str(keep bool) ([]byte, error) {
	start := d.pos + 1
	plain := true
	for i := start; ; {
		if i >= len(d.data) {
			return nil, errIncomplete
		}
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			if !keep || plain {
				return d.data[start:i], nil
			}
			return unquote(d.data[start:i]), nil
		case c == '\\':
			plain = false
			i++
			if i >= len(d.data) {
				return nil, errIncomplete
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for k := 0; k < 4; k, i = k+1, i+1 {
					if i >= len(d.data) {
						return nil, errIncomplete
					}
					if unhex(d.data[i]) < 0 {
						d.pos = i
						return nil, d.syntax("in \\u hexadecimal character escape")
					}
				}
			default:
				d.pos = i
				return nil, d.syntax("in string escape code")
			}
		case c < ' ':
			d.pos = i
			return nil, d.syntax("in string literal")
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(d.data[i:])
			plain = plain && !(r == utf8.RuneError && n == 1)
			i += n
		}
	}
}

// unquote decodes the body of a valid JSON string literal that holds an
// escape or invalid UTF-8, as encoding/json decodes it.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			e := s[i+1]
			i += 2
			switch e {
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
				r := hex4(s[i:])
				i += 4
				if utf16.IsSurrogate(r) {
					// The pair's second half, when one follows, or U+FFFD.
					r2 := rune(-1)
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						r2 = hex4(s[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
			default: // '"', '\\', '/'
				b = append(b, e)
			}
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	return b
}

// hex4 is the value of the four hexadecimal digits b starts with, -1
// when it does not start with four.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		h := unhex(c)
		if h < 0 {
			return -1
		}
		r = r<<4 | h
	}
	return r
}

func unhex(c byte) rune {
	switch {
	case c >= '0' && c <= '9':
		return rune(c - '0')
	case c >= 'a' && c <= 'f':
		return rune(c - 'a' + 10)
	case c >= 'A' && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}
