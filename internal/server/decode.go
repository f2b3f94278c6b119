// Request decoding: the /plan, /explain and /execute bodies are read
// into a pooled buffer. A plain body — one object whose members are all
// request fields, the body json.Marshal writes for a client — is decoded
// by hand in one pass. Every other body goes to encoding/json's Decoder,
// which reads it through a reader that fails as http.MaxBytesReader
// fails past maxRequestBytes: that decoder alone says what an unusual
// body means, and which status refuses a bad one.
// FuzzDecodeRequestMatchesEncodingJSON holds both paths to the Decoder
// behind http.MaxBytesReader.

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// maxRequestBytes bounds a request body: the largest statement the
// binder accepts (64 relations) is a few KiB, so 1 MiB never refuses a
// real query and a client cannot make the server buffer more.
const maxRequestBytes = 1 << 20

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
	if !too && decodePlain(data, ms) {
		return 0, nil
	}
	// The members decodePlain stored before it gave up are stored again,
	// to the same values, as the Decoder meets them.
	var body io.Reader = bytes.NewReader(data)
	if too {
		body = io.MultiReader(body, pastLimit{})
	}
	dec := json.NewDecoder(body)
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return 0, nil
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxRequestBytes)
	default:
		return http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err)
	}
}

// pastLimit is a body's bytes past maxRequestBytes: every read fails as
// http.MaxBytesReader's fails there.
type pastLimit struct{}

func (pastLimit) Read([]byte) (int, error) {
	return 0, &http.MaxBytesError{Limit: maxRequestBytes}
}

// decodePlain decodes data into ms when it is one object, between JSON
// whitespace, whose members ms all name: exactly, or as bytes.EqualFold
// matches names. A value is null, which leaves its field as it was, or
// one of its field's type: a string with no surrogate escape in valid
// UTF-8, an integer literal in range, true or false. decodePlain
// reports false, perhaps having stored some members, on any other body.
func decodePlain(data []byte, ms []member) bool {
	s := scanner{b: data}
	if !s.next('{') {
		return false
	}
	if !s.next('}') {
		for {
			m := s.name(ms)
			if m == nil || !s.next(':') || !s.value(m) {
				return false
			}
			if s.next('}') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
	}
	s.ws()
	return s.i == len(s.b)
}

// scanner reads b from i on.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// next skips whitespace and then c, reporting whether c was there.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal skips lit, reporting whether it was there.
func (s *scanner) literal(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// name scans a member name and returns the member of ms it names, nil
// for any other. No request field's name holds a backslash, a control
// byte or invalid UTF-8, so a name with an escape or either of those
// matches none, and its body is left to encoding/json.
func (s *scanner) name(ms []member) *member {
	if !s.next('"') {
		return nil
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return nil
	}
	key := s.b[s.i : s.i+n]
	s.i += n + 1
	for i := range ms {
		if string(key) == ms[i].name {
			return &ms[i]
		}
	}
	for i := range ms {
		if bytes.EqualFold(key, []byte(ms[i].name)) {
			return &ms[i]
		}
	}
	return nil
}

// value scans the value of m, after whitespace, and stores it.
func (s *scanner) value(m *member) bool {
	s.ws()
	switch {
	case s.literal("null"):
	case m.str != nil:
		str, ok := s.str()
		if !ok {
			return false
		}
		*m.str = str
	case m.num != nil:
		return s.integer(m.num)
	case s.literal("true"):
		*m.flag = true
	case s.literal("false"):
		*m.flag = false
	default:
		return false
	}
	return true
}

// integer scans an integer literal that fits an int into n. What follows
// the digits is the caller's to check, so a fraction or an exponent
// fails there.
func (s *scanner) integer(n *int) bool {
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	digits := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	if s.i == digits || s.b[digits] == '0' && s.i > digits+1 {
		return false // no digits, or a leading zero
	}
	v, err := strconv.ParseInt(string(s.b[start:s.i]), 10, 64)
	if err != nil {
		return false
	}
	*n = int(v)
	return true
}

// str scans a string and returns its value: a copy of its bytes when it
// holds no escape, else its unescaped value, built in one allocation.
func (s *scanner) str() (string, bool) {
	if !s.next('"') {
		return "", false
	}
	b, start, plain := s.b, s.i, true
	for i := start; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			if plain {
				return string(b[start:i]), true
			}
			return unescape(b[start:i]), true
		case c == '\\':
			if i+1 >= len(b) {
				return "", false
			}
			plain = false
			if b[i+1] != 'u' {
				if strings.IndexByte(escapes, b[i+1]) < 0 {
					return "", false
				}
				i += 2
				continue
			}
			if r, ok := hexRune(b[i+2:]); !ok || 0xd800 <= r && r < 0xe000 {
				return "", false // a surrogate, or not four hex digits
			}
			i += 6
		case c < ' ':
			return "", false
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return "", false
			}
			i += n
		}
	}
	return "", false
}

// unescape is the value of raw, the inside of a string str has checked.
func unescape(raw []byte) string {
	var b strings.Builder
	b.Grow(len(raw))
	for {
		i := bytes.IndexByte(raw, '\\')
		if i < 0 {
			b.Write(raw)
			return b.String()
		}
		b.Write(raw[:i])
		if raw[i+1] == 'u' {
			r, _ := hexRune(raw[i+2:])
			b.WriteRune(r)
			raw = raw[i+6:]
		} else {
			b.WriteByte(escaped[strings.IndexByte(escapes, raw[i+1])])
			raw = raw[i+2:]
		}
	}
}

// escapes are the letters of JSON's short escapes, \" to \t, and
// escaped the bytes they stand for.
const escapes, escaped = `"\/bfnrt`, "\"\\/\b\f\n\r\t"

// hexRune is the rune of the four hexadecimal digits b starts with.
func hexRune(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	r, err := strconv.ParseUint(string(b[:4]), 16, 32)
	return rune(r), err == nil
}
