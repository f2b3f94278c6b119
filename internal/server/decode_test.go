package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"orderopt/internal/tpcr"
)

// decodeViaEncodingJSON is the request decoder the hand-written one
// replaced: a json.Decoder behind http.MaxBytesReader, which must meet
// nothing but whitespace after the value. It is the reference the
// decoder's tests hold it to.
func decodeViaEncodingJSON(body []byte, v any) int {
	r := httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(body))
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), r.Body, maxRequestBytes))
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
		return 0
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func decodeServed(body []byte, v any) (int, error) {
	r := httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(body))
	return decodeBody(httptest.NewRecorder(), r, v)
}

// FuzzDecodeRequestMatchesEncodingJSON: for both request types the
// decoder accepts what encoding/json accepted, decodes it to the same
// value, and refuses the rest with the same status. When over is set
// the body is padded with fill past maxRequestBytes.
func FuzzDecodeRequestMatchesEncodingJSON(f *testing.F) {
	for _, s := range []string{
		`{"sql": "select 1", "dataset": "tpcr-mid", "maxRows": 3, "timeoutMs": 50, "maxDOP": 2, "stream": true, "chunkRows": 7, "analyze": true}`,
		`{"ſql": "select 1"}`, `{"sql": "x", "chun` + "\u212a" + `Rows": 5}`, `{"SQL": "x", "Stream": true, "ANALYZE": false, "MaxDop": 1}`,
		`{"sql": "a", "sql": "b", "maxRows": 1, "maxRows": 2}`, `{"sql": "a", "sql": null, "maxRows": null, "stream": null}`, `null`,
		`{"maxRows": 1e2}`, `{"maxRows": 1.0}`, `{"stream": 1}`, `{"maxRows": "5"}`, `{"sql": 5}`, `{"sql": ["x"]}`, `{"analyze": {}}`,
		`{"maxRows": -0}`, `{"maxRows": 01}`, `{"maxRows": -9223372036854775808}`, `{"maxRows": 9223372036854775808}`, `{"timeoutMs": -1}`,
		`{"sql": "\ud800"}`, `{"sql": "😀 \udc00\ud800 xé 􏿿"}`, "{\"sql\": \"\xff\xfe ok \xe2\x82\"}", `{"sql": "a\/b\"c\\d\b\f\n\r\t"}`,
		"{\"sql\": \"tab\there\"}", `{"sql": "x\u0000y"}`, `{"sql": "\x"}`, `{"sql": "\u12G4"}`, `{"\u0073ql": "escaped key"}`,
		`{"sql": "x", "vectorized": true, "extra": {"a": [1, {"b": null}], "c": -1.5e-3}}`,
		`{"sql": "x"} {}`, `{"sql": "x"}x`, `{"sql": "x"} "y`, `{"sql": "x"} 5`, `{"sql": "x"} ]`, `{"sql": "x"},`, " \t\r\n{\"sql\": \"x\"}\n ",
		``, `   `, `{`, `{"sql"`, `{"sql":`, `{"sql": "x",}`, `{,}`, `{"sql" "x"}`, `"str"`, `[1, 2]`, `123`, `true`, `nul`, `-`, `{}`,
		`{"x": ` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"x": ` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		f.Add([]byte(s), byte(' '), false)
	}
	for _, s := range []struct {
		body string
		fill byte
	}{
		{`{"sql": "`, 'x'}, {`{"sql": "x"}`, ' '}, {`{"sql": "x"} "`, 'a'}, {`{"sql": "x"} `, '1'}, {`{"sql": "x"} {`, ' '},
		{`[`, '['}, {`{"sql": "x", "maxRows": `, '9'}, {`{"sql": "`, 0}, {`null`, ' '}, {`"`, 'a'}, {`123`, '4'}, {``, ' '},
	} {
		f.Add([]byte(s.body), s.fill, true)
	}
	f.Fuzz(func(t *testing.T, body []byte, fill byte, over bool) {
		if over && len(body) <= maxRequestBytes {
			body = append(body, bytes.Repeat([]byte{fill}, maxRequestBytes+1-len(body))...)
		}
		for _, newV := range []func() any{func() any { return new(ExecuteRequest) }, func() any { return new(PlanRequest) }} {
			got, want := newV(), newV()
			code, err := decodeServed(body, got)
			wantCode := decodeViaEncodingJSON(body, want)
			if code != wantCode {
				t.Fatalf("%T %.200q: status %d (%v), encoding/json's %d", got, body, code, err, wantCode)
			}
			if (code == 0) != (err == nil) {
				t.Fatalf("%T %.200q: status %d with error %v", got, body, code, err)
			}
			if code == 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%T %.200q: decoded %+v, encoding/json %+v", got, body, got, want)
			}
			if len(body) > maxRequestBytes {
				continue
			}
			unmarshaled := newV()
			if uerr := json.Unmarshal(body, unmarshaled); (uerr == nil) != (code == 0) {
				t.Fatalf("%T %.200q: status %d, json.Unmarshal: %v", got, body, code, uerr)
			} else if uerr == nil && !reflect.DeepEqual(got, unmarshaled) {
				t.Fatalf("%T %.200q: decoded %+v, json.Unmarshal %+v", got, body, got, unmarshaled)
			}
		}
	})
}

// TestDecodeRequestFields sets each field of both request types in turn,
// by reflection, and decodes what encoding/json writes for it: a field
// added to a request type that the decoder does not know fails here.
// Each is also decoded under its upper-cased name.
func TestDecodeRequestFields(t *testing.T) {
	for _, v := range []any{new(ExecuteRequest), new(PlanRequest)} {
		rt := reflect.TypeOf(v).Elem()
		for i := 0; i < rt.NumField(); i++ {
			want := reflect.New(rt)
			f := want.Elem().Field(i)
			switch f.Kind() {
			case reflect.String:
				f.SetString("value of " + rt.Field(i).Name)
			case reflect.Int:
				f.SetInt(int64(1000 + i))
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("%s.%s: the decoder has no %s members", rt.Name(), rt.Field(i).Name, f.Kind())
			}
			body, err := json.Marshal(want.Interface())
			if err != nil {
				t.Fatal(err)
			}
			name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
			upper := bytes.Replace(body, []byte(`"`+name+`"`), []byte(`"`+strings.ToUpper(name)+`"`), 1)
			for _, b := range [][]byte{body, upper} {
				got := reflect.New(rt)
				if code, err := decodeRequest(b, false, got.Interface()); code != 0 || !reflect.DeepEqual(got.Interface(), want.Interface()) {
					t.Errorf("%s %s: decoded %+v (%d, %v), want %+v", rt.Name(), b, got.Elem(), code, err, want.Elem())
				}
			}
		}
	}
}

// TestDecodeRequestAllocs: a plain body allocates nothing but the
// strings of its non-empty string members, escaped ones included: the
// Q8 statement as json.Marshal writes it (newlines as \n), a statement
// with <, > and & (written \u003c, \u003e and \u0026), and a non-ASCII
// literal. Any other body goes to encoding/json and is not counted.
func TestDecodeRequestAllocs(t *testing.T) {
	marshal := func(req ExecuteRequest) string {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, c := range []struct {
		body    string
		strings int
	}{
		{`{"sql": "select * from orders, customer where o_custkey = c_custkey order by o_orderkey limit 10", "dataset": "tpcr-large"}`, 2},
		{`{"sql": "select 1", "dataset": "", "maxRows": 10, "timeoutMs": 250, "maxDOP": 2, "stream": true, "chunkRows": 64, "analyze": false}`, 1},
		{`{"SQL": "select 1", "maxRows": null}`, 1},
		{marshal(ExecuteRequest{SQL: tpcr.Query8SQL, Dataset: "tpcr-mid"}), 2},
		{marshal(ExecuteRequest{SQL: "select * from orders where o_orderkey < 10 and o_custkey > 5 and o_comment <> 'a & b'"}), 1},
		{`{"sql": "select * from nation where n_name = 'Côte d’Ivoire — 日本'"}`, 1},
	} {
		body := []byte(c.body)
		var req ExecuteRequest
		if code, err := decodeRequest(body, false, &req); code != 0 {
			t.Fatalf("%s: %d %v", body, code, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = decodeRequest(body, false, &req) }); n > float64(c.strings) {
			t.Errorf("%s: %v allocations, want at most %d", body, n, c.strings)
		}
	}
}
