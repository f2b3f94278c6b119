package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"orderopt/internal/conformance"
	"orderopt/internal/exec"
	"orderopt/internal/planner"
)

// viaJSON is the oracle: v through a json.Encoder, indented as the
// buffered bodies are or compact as a stream frame is.
func viaJSON(v any, indent bool) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	if indent {
		enc.SetIndent("", "  ")
	}
	err := enc.Encode(v)
	return b.Bytes(), err
}

// checkWriter holds the append writer's output for v to the oracle's:
// same bytes, or the same refusal.
func checkWriter(t testing.TB, what string, v any) {
	t.Helper()
	var got []byte
	var err error
	indent, oracle := false, v
	switch v := v.(type) {
	case *ExecuteResponse:
		got, err = AppendExecuteResponse(nil, v)
		indent = true
	case *PlanResponse:
		got, err = AppendPlanResponse(nil, v)
		indent = true
	case *StreamHeader:
		got, err = AppendStreamHeader(nil, v)
	case *StreamTrailer:
		got, err = AppendStreamTrailer(nil, v)
	case *StreamRows:
		got = AppendRowsFrame(nil, execRows(v.Rows))
		oracle = &StreamRows{Frame: FrameRows, Rows: v.Rows} // the entry point takes rows, not a frame
	default:
		t.Fatalf("%s: no writer for %T", what, v)
	}
	want, wantErr := viaJSON(oracle, indent)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: writer error %v, encoding/json %v", what, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: writer and encoding/json disagree\nwriter: %q\n  json: %q", what, got, want)
	}
}

// execRows is rows as the stream sink hands them over.
func execRows(rows [][]int64) []exec.Row {
	if rows == nil {
		return nil
	}
	out := make([]exec.Row, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// decodeStrict decodes one wire value into the public type v, refusing
// members the type does not declare.
func decodeStrict(t *testing.T, what string, b []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v\n%s", what, err, b)
	}
}

// serve posts body to path in-process and returns the recorded response.
func serve(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec
}

// fill sets every field under v to a non-zero value, so a member the
// writer forgets — one added to a wire type later, say — shows up as a
// difference from encoding/json. Pointers recurse depth levels.
func fill(v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), depth)
		}
	case reflect.Pointer:
		if depth > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem(), depth-1)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue // not on the wire
			}
			fill(v.Field(i), depth)
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// hardStrings are the SQL texts the string fast path must hand to
// encoding/json; hardFloats straddle the 'f'/'e' cutoffs.
var (
	hardStrings = []string{"", "select 1", "a < b", "a > b", "a & b", `say "x"`, `back\slash`, "tab\there", "line\nbreak",
		"café", "sep\u2028arator", "sep\u2029", "bad\xffutf8", "\x00\x1f\x7f", "<>&"}
	hardFloats = []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 1.5e300, 5e-324, math.MaxFloat64,
		123456.789, 1e-10, -1e-9, math.Inf(1), math.Inf(-1), math.NaN()}
)

// TestWriterMatchesEncodingJSON: every served body is byte for byte
// what encoding/json prints for the same public value — over the whole
// conformance corpus (buffered, streamed at chunk 1, 7 and 4096, and
// planned) and over a hand-made table of the values a corpus never
// produces.
func TestWriterMatchesEncodingJSON(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		for _, v := range []any{new(ExecuteResponse), new(PlanResponse), new(StreamHeader), new(StreamTrailer), new(StreamRows)} {
			name := reflect.TypeOf(v).Elem().Name()
			checkWriter(t, name+" zero", v)
			fill(reflect.ValueOf(v).Elem(), 3)
			checkWriter(t, name+" filled", v)
		}
		checkWriter(t, "empty slices", &ExecuteResponse{Columns: []string{}, Rows: [][]int64{}, Operators: []exec.OpStats{}})
		checkWriter(t, "empty and nil rows", &ExecuteResponse{Rows: [][]int64{{}, nil, {math.MinInt64, math.MaxInt64, 0, -1}}})
		checkWriter(t, "empty residual and operators", &PlanResponse{Residual: []string{}, Plan: &PlanNode{}})
		checkWriter(t, "empty trailer operators", &StreamTrailer{Operators: []exec.OpStats{}})
		checkWriter(t, "rows frame", &StreamRows{Frame: FrameRows, Rows: [][]int64{{}, nil, {math.MinInt64}, {1, 2, 3}}})
		checkWriter(t, "empty rows frame", &StreamRows{Frame: FrameRows, Rows: [][]int64{}})
		for _, s := range hardStrings {
			checkWriter(t, "string "+strconv.Quote(s), &ExecuteResponse{SQL: s, Columns: []string{s}, Plan: &PlanNode{Op: s, SortOrder: s},
				Operators: []exec.OpStats{{Op: s, Detail: s}}})
			checkWriter(t, "string "+strconv.Quote(s), &StreamTrailer{Error: s, Code: s})
		}
		for _, f := range hardFloats {
			what := "float " + strconv.FormatFloat(f, 'g', -1, 64)
			checkWriter(t, what, &PlanResponse{Cost: f})
			checkWriter(t, what, &ExecuteResponse{Plan: &PlanNode{Left: &PlanNode{Card: f}}})
			checkWriter(t, what, &StreamHeader{Cost: f})
			checkWriter(t, what, &StreamTrailer{Operators: []exec.OpStats{{EstRows: f}}})
		}
	})

	fixtures, err := conformance.Load("../conformance/testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixtures found")
	}
	for _, f := range fixtures {
		t.Run(f.Name, func(t *testing.T) {
			ds, _, err := conformance.Resolve(f)
			if err != nil {
				t.Fatal(err)
			}
			cat, err := conformance.Catalog(f)
			if err != nil {
				t.Fatal(err)
			}
			s := New(Config{Planner: planner.New(planner.DefaultConfig(cat)), Datasets: preloaded(ds)})

			// same checks that the recorded bytes are what encoding/json
			// prints for the value they decode to, and what the exported
			// entry point appends for it.
			same := func(what string, wire []byte, v any, indent bool) {
				t.Helper()
				decodeStrict(t, what, wire, v)
				want, err := viaJSON(v, indent)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wire, want) {
					t.Fatalf("%s: the server's bytes are not encoding/json's\nserver: %q\n  json: %q", what, wire, want)
				}
				checkWriter(t, what, v)
			}

			rec := serve(t, s, "/plan", PlanRequest{SQL: f.SQL})
			same("/plan", rec.Body.Bytes(), new(PlanResponse), true)

			rec = serve(t, s, "/execute", ExecuteRequest{SQL: f.SQL, Dataset: f.Dataset, MaxRows: ExecuteRowCap})
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
				t.Errorf("buffered body of %d bytes carries Content-Length %q", rec.Body.Len(), cl)
			}
			buffered := new(ExecuteResponse)
			same("buffered /execute", rec.Body.Bytes(), buffered, true)
			if buffered.RowCount != f.Expect.Rows {
				t.Fatalf("buffered path returned %d rows, golden expects %d", buffered.RowCount, f.Expect.Rows)
			}

			for _, chunk := range []int{1, 7, 4096} {
				rec := serve(t, s, "/execute", ExecuteRequest{SQL: f.SQL, Dataset: f.Dataset, Stream: true, ChunkRows: chunk})
				lines := bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
				if lines = lines[:len(lines)-1]; len(lines) < 2 { // the body ends in a newline

					t.Fatalf("chunk %d: %d frames, want a header and a trailer at least", chunk, len(lines))
				}
				what := "chunk " + strconv.Itoa(chunk)
				same(what+" header", lines[0], new(StreamHeader), false)
				var streamed int64
				for _, l := range lines[1 : len(lines)-1] {
					fr := new(StreamRows)
					same(what+" rows frame", l, fr, false)
					streamed += int64(len(fr.Rows))
				}
				tr := new(StreamTrailer)
				same(what+" trailer", lines[len(lines)-1], tr, false)
				if tr.Error != "" || tr.RowCount != streamed || streamed != f.Expect.Rows {
					t.Fatalf("%s: trailer %+v after %d streamed rows, golden expects %d", what, tr, streamed, f.Expect.Rows)
				}
			}
		})
	}
}

// FuzzWriterMatchesEncodingJSON drives every entry point with one
// fuzzed string, float and integer placed in each position of their
// type, under a plan tree of fuzzed depth.
func FuzzWriterMatchesEncodingJSON(f *testing.F) {
	for i, s := range hardStrings {
		f.Add(s, hardFloats[i%len(hardFloats)], int64(i)-3, uint8(i))
	}
	for i, fl := range hardFloats {
		f.Add("select 1", fl, int64(math.MinInt64)+int64(i), uint8(0))
	}
	f.Fuzz(func(t *testing.T, s string, fl float64, n int64, depth uint8) {
		var tree *PlanNode
		for i := 0; i < int(depth%8); i++ {
			node := &PlanNode{Op: s, Cost: fl, Card: -fl, Relation: s, DOP: int(int32(n)), Limit: i, Left: tree}
			if i%2 == 1 {
				node.Left, node.Right, node.SortOrder, node.Index = nil, tree, s, s
			}
			tree = node
		}
		ops := []exec.OpStats{{Op: s, Detail: s, EstRows: fl, Rows: n, TimeNs: -n, DOP: int(int32(n)), Limited: n%2 == 0, Resident: n%3 == 0}}
		d := int64(depth)
		rows := [][]int64{{n, -n, 0}, {n, -n, 0}, {n, d, 0}, {d, -n, 0}, {}, {d}, {d}, nil, {d}}
		checkWriter(t, "ExecuteResponse", &ExecuteResponse{SQL: s, Dataset: s, Source: s, Cost: fl, Plan: tree,
			Columns: []string{s, "c"}, RowCount: n, Rows: rows, Truncated: n < 0, RowsSorted: n, PlanNs: n, ExecNs: n, Operators: ops})
		checkWriter(t, "PlanResponse", &PlanResponse{SQL: s, Source: s, Cost: fl, PlanNs: n, Residual: []string{s}, Plan: tree})
		checkWriter(t, "StreamHeader", &StreamHeader{Frame: FrameHeader, SQL: s, Dataset: s, Source: s, Cost: fl, Plan: tree,
			Columns: []string{s}, ChunkRows: int(int32(n)), PlanNs: n})
		checkWriter(t, "StreamRows", &StreamRows{Frame: FrameRows, Rows: rows})
		checkWriter(t, "StreamTrailer", &StreamTrailer{Frame: FrameTrailer, RowCount: n, RowsSorted: n, ExecNs: n, Operators: ops, Error: s, Code: s})
	})
}

// intEdges are the integers whose digit count is an edge: each side of
// every power of ten, and both ends of int64.
var intEdges = func() []int64 {
	edges := []int64{0, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for i, p := 0, int64(1); i < 19; i, p = i+1, p*10 {
		edges = append(edges, p, -p, p-1, 1-p, p+1, -p-1)
	}
	return edges
}()

// checkRowsFrame appends the rows frame for rows to dst and holds it to
// encoding/json's line, dst left as it was; it returns the result.
func checkRowsFrame(t testing.TB, what string, dst []byte, rows [][]int64) []byte {
	t.Helper()
	got := AppendRowsFrame(dst, execRows(rows))
	want, err := viaJSON(&StreamRows{Frame: FrameRows, Rows: rows}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(dst)], dst) || !bytes.Equal(got[len(dst):], want) {
		t.Fatalf("%s: writer and encoding/json disagree\nwriter: %q\n  json: %q", what, got[len(dst):], want)
	}
	return got
}

// TestPutIntMatchesStrconv: putInt writes strconv's digits for every n
// in [-10^5, 10^6] and at every digit-count edge, and stores nothing
// before b[i] or at and past b[i+maxIntLen] — the table path's wide
// stores stay inside the room the contract reserves.
func TestPutIntMatchesStrconv(t *testing.T) {
	const i, sentinel = 3, 0xa5
	b := make([]byte, i+maxIntLen+8)
	check := func(n int64) {
		for k := range b {
			b[k] = sentinel
		}
		end := putInt(b, i, n)
		if got, want := string(b[i:end]), strconv.FormatInt(n, 10); got != want {
			t.Fatalf("putInt(%d) wrote %q, strconv %q", n, got, want)
		}
		for k, c := range b {
			if (k < i || k >= i+maxIntLen) && c != sentinel {
				t.Fatalf("putInt(%d) stored %#x at b[i%+d], outside its room", n, c, k-i)
			}
		}
	}
	for n := int64(-1e5); n <= 1e6; n++ {
		check(n)
	}
	for _, n := range intEdges {
		check(n)
	}
}

// TestRowsFrameMatchesEncodingJSON: a rows frame is encoding/json's
// bytes however its values repeat down a column — runs equal to the row
// above at the start, middle and end of a row and across all of it, a
// run broken in the middle, nil rows, ragged widths up to one past the
// memoCells columns the memo tracks, and every integer whose digit
// count is an edge.
// The seeded frames are appended into one reused buffer, each opening
// with the previous frame's last row, so a memo that outlived its frame
// would copy bytes the new frame has overwritten.
func TestRowsFrameMatchesEncodingJSON(t *testing.T) {
	wide := make([]int64, memoCells+1)
	for j := range wide {
		wide[j] = intEdges[j%len(intEdges)]
	}
	wideBroken := slices.Clone(wide)
	wideBroken[memoCells/2] = 42
	for _, c := range []struct {
		what string
		rows [][]int64
	}{
		{"run at the start", [][]int64{{1, 22, 333, 4444}, {1, 22, 9, 9}}},
		{"run in the middle", [][]int64{{1, 22, 333, 4444}, {9, 22, 333, 9}}},
		{"run at the end", [][]int64{{1, 22, 333, 4444}, {9, 9, 333, 4444}}},
		{"whole row", [][]int64{{1, 22, 333, 4444}, {1, 22, 333, 4444}, {1, 22, 333, 4444}}},
		{"run broken in the middle", [][]int64{{1, 22, 333, 4444, 5}, {1, 22, -7, 4444, 5}, {1, 22, -7, 4444, 5}}},
		{"run after a value changed length", [][]int64{{5, 10, 7}, {12345, 10, 7}, {-1, 10, 7}, {-1, 10, 70000}}},
		{"nil rows", [][]int64{{1, 2}, nil, {1, 2}, {1, 2}, nil, nil, {1, 2}}},
		{"ragged widths", [][]int64{{1, 2, 3}, {1, 2}, {1, 2, 3}, {}, {}, {1}, {1, 2, 3}}},
		{"edges repeated", [][]int64{intEdges, intEdges, slices.Clone(intEdges)}},
		{"wider than the memo", [][]int64{wide, wide, wideBroken, wide, {1}, wide}},
		{"nil frame", nil},
		{"empty frame", [][]int64{}},
	} {
		checkRowsFrame(t, c.what, []byte("prefix "), c.rows)
	}

	rng := rand.New(rand.NewSource(31))
	widths := []int{0, 1, 3, 10, memoCells, memoCells + 1}
	value := func() int64 {
		if rng.Intn(3) == 0 {
			return intEdges[rng.Intn(len(intEdges))]
		}
		return rng.Int63n(2000) - 1000
	}
	var buf []byte
	var prev []int64
	for f := 0; f < 3000; f++ {
		rows := make([][]int64, rng.Intn(16))
		width := len(prev)
		if prev == nil || rng.Intn(4) == 0 {
			width = widths[rng.Intn(len(widths))]
		}
		for i := range rows {
			switch rng.Intn(10) {
			case 0:
				prev = nil
				continue
			case 1:
				width = widths[rng.Intn(len(widths))]
			}
			r := make([]int64, width)
			for j := range r {
				if j < len(prev) && rng.Intn(4) != 0 {
					r[j] = prev[j]
				} else {
					r[j] = value()
				}
			}
			if i == 0 && len(prev) == width {
				copy(r, prev) // the last row of the frame before
			}
			rows[i], prev = r, r
		}
		if f%2 == 0 {
			buf = buf[:0]
		}
		buf = checkRowsFrame(t, "seeded frame "+strconv.Itoa(f), buf, rows)
	}
}

// FuzzRowsFrameMatchesEncodingJSON reads fuzzed bytes as a frame of at
// most 16 rows (fuzzedRows) and holds its line to encoding/json's.
func FuzzRowsFrameMatchesEncodingJSON(f *testing.F) {
	for _, data := range fuzzedRowsSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRowsFrame(t, "fuzzed frame", []byte("prefix "), fuzzedRows(data))
	})
}

var fuzzedRowsSeeds = [][]byte{
	{},
	{2, 3, 1, 2, 3, 5 << 2, 0, 2, 4, 4, 4, 4},
	{2, 10, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 0xff, 1, 0xff, 0, 1, 2 << 2, 4, 3, 1, 2, 3, 4, 5, 6, 7, 8},
	{2, memoCells + 2, 0, 4, 8, 12, 0xfd, 1, 0x7d, 2, 1, 9, 0xfd},
}

// fuzzedRows reads data as at most 16 rows. Per row a control byte picks
// a nil row, the width of the row above or a new one (up to eight past
// memoCells), and how many leading columns repeat the row above; each
// further column is an edge integer, the value above it, a small
// integer or eight raw bytes.
func fuzzedRows(data []byte) [][]int64 {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	var rows [][]int64
	var above []int64
	for len(data) > 0 && len(rows) < 16 {
		c := next()
		if c%4 == 0 {
			rows, above = append(rows, nil), nil
			continue
		}
		width := len(above)
		if c%4 == 2 || above == nil {
			width = int(next()) % (memoCells + 9)
		}
		r := make([]int64, width)
		for j := range r {
			switch v := next(); {
			case j < len(above) && (j < int(c>>2) || v%4 == 1):
				r[j] = above[j]
			case v%4 == 0:
				r[j] = intEdges[int(v>>2)%len(intEdges)]
			case v%4 == 2:
				r[j] = int64(int8(next()))
			default:
				var raw [8]byte
				for k := range raw {
					raw[k] = next()
				}
				r[j] = int64(binary.LittleEndian.Uint64(raw[:]))
			}
		}
		rows, above = append(rows, r), r
	}
	return rows
}

// FuzzPiecesFrameMatchesRowsFrame cuts the rows of a fuzzed frame
// (fuzzedRows) into one to four pieces at fuzzed columns, hands them to
// a rowsFrame as a spine would (spinePieces), each claiming at most as
// many pieces of the row above as it repeats, and holds the frame to
// AppendRowsFrame over the whole rows, which is held to encoding/json.
func FuzzPiecesFrameMatchesRowsFrame(f *testing.F) {
	for i, data := range fuzzedRowsSeeds {
		f.Add(data, uint64(i)*0x0102030405060708)
	}
	f.Fuzz(func(t *testing.T, data []byte, cuts uint64) {
		rows := fuzzedRows(data)
		if rows == nil {
			return // a stream cuts no frame of no rows
		}
		want := checkRowsFrame(t, "fuzzed frame", nil, rows)
		widths := make([]int, cuts%4)
		for i := range widths {
			widths[i] = int(cuts>>(8*i+8)) % (memoCells + 9)
		}
		pieces, lows := spinePieces(execRows(rows), widths)
		var fr rowsFrame
		got := fr.begin(nil)
		for i, p := range pieces {
			got = fr.row(got, p, min(lows[i], int(cuts>>(32+i%32))%8))
		}
		if got = fr.end(got); !bytes.Equal(got, want) {
			t.Fatalf("pieces of widths %v, lows %v: the frame and AppendRowsFrame disagree\npieces: %q\n  rows: %q", widths, lows, got, want)
		}
	})
}

// spinePieces cuts each row into pieces of the given widths and the rest
// of the row, as a spine hands them to its sink. The leading pieces whose
// values equal the row above's, cut the same way, are that row's slices,
// and low counts them; a nil row is one nil piece with low 0.
func spinePieces(rows []exec.Row, widths []int) (pieces [][]exec.Row, lows []int) {
	var above []exec.Row
	for _, r := range rows {
		if r == nil {
			pieces, lows, above = append(pieces, []exec.Row{nil}), append(lows, 0), nil
			continue
		}
		p := make([]exec.Row, 0, len(widths)+1)
		rest := r
		for _, w := range widths {
			w = min(w, len(rest))
			p, rest = append(p, rest[:w:w]), rest[w:]
		}
		p = append(p, rest)
		low := 0
		for len(above) == len(p) && low < len(p) && slices.Equal(p[low], above[low]) {
			p[low] = above[low]
			low++
		}
		pieces, lows, above = append(pieces, p), append(lows, low), p
	}
	return pieces, lows
}

// orderFlowRows is n rows of the order-flow stream's shape: ten
// columns, the first six constant over runs of run rows (one order's
// lineitems), the last four distinct. Run 1 makes every value distinct
// from the one above it.
func orderFlowRows(n, run int) []exec.Row {
	rows := make([]exec.Row, n)
	for i := range rows {
		rows[i] = make(exec.Row, 10)
		for j := range rows[i] {
			if j < 6 {
				rows[i][j] = int64(i/run*7919 + j*104729)
			} else {
				rows[i][j] = int64(i*1000 + j)
			}
		}
	}
	return rows
}

// wideRows is n rows of width columns, whole rows repeating over runs
// of run rows.
func wideRows(n, width, run int) []exec.Row {
	rows := make([]exec.Row, n)
	for i := range rows {
		rows[i] = make(exec.Row, width)
		for j := range rows[i] {
			rows[i][j] = int64(i/run*width + j)
		}
	}
	return rows
}

// TestWriterAllocs: once its buffer has grown, a rows frame allocates
// nothing — all distinct, or repeating as the order-flow stream does,
// and as wide as 40 columns, past the memo's memoCells — and neither
// does a buffered top-10 body.
func TestWriterAllocs(t *testing.T) {
	var buf []byte
	for _, c := range []struct {
		what string
		rows []exec.Row
	}{
		{"256 x 10 distinct", orderFlowRows(256, 1)}, {"256 x 10 order-flow", orderFlowRows(256, 7)},
		{"256 x 40 distinct", wideRows(256, 40, 1)}, {"256 x 40 repeating", wideRows(256, 40, 7)},
	} {
		buf = AppendRowsFrame(buf[:0], c.rows)
		if n := testing.AllocsPerRun(100, func() { buf = AppendRowsFrame(buf[:0], c.rows) }); n != 0 {
			t.Errorf("a steady-state %s rows frame allocates %v times, want 0", c.what, n)
		}
	}

	scan := func(rel string) *PlanNode {
		return &PlanNode{Op: "IndexScan", Cost: 12.5, Card: 15000, Relation: rel, Index: rel + "_pk"}
	}
	resp := &ExecuteResponse{
		SQL:     "select * from orders, customer where o_custkey = c_custkey order by o_orderkey limit 10",
		Dataset: "tpcr-large", Source: "cachehit", Cost: 1234.5,
		Plan:    &PlanNode{Op: "Limit", Cost: 1234.5, Card: 10, Limit: 10, Left: &PlanNode{Op: "HashJoin", Left: scan("o"), Right: scan("c")}},
		Columns: []string{"o.o_orderkey", "o.o_custkey", "c.c_custkey", "c.c_nationkey"}, RowCount: 10, RowsSorted: 0, ExecNs: 41000,
		Operators: []exec.OpStats{{Op: "Limit", EstRows: 10, Rows: 10, TimeNs: 40000}, {Op: "HashJoin", Detail: "o.o_custkey = c.c_custkey",
			EstRows: 15000, Rows: 10, TimeNs: 39000, Limited: true}, {Op: "TableScan", Detail: "customer", EstRows: 2000, Rows: 2000, Resident: true}},
	}
	for i := 0; i < 10; i++ {
		resp.Rows = append(resp.Rows, []int64{int64(i), int64(i * 7), int64(i * 7), 3})
	}
	buf, err := AppendExecuteResponse(buf[:0], resp)
	if err != nil {
		t.Fatal(err)
	}
	checkWriter(t, "top-10 body", resp)
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendExecuteResponse(buf[:0], resp) }); n != 0 {
		t.Errorf("a buffered top-10 body allocates %v times beyond its buffer, want 0", n)
	}
}

// TestWriteJSONEncodesBeforeStatus: a body that cannot be encoded is a
// 500 carrying an error body, not a 200 cut short — on the writer's
// branch and on encoding/json's — and a body that can leaves with its
// Content-Length.
func TestWriteJSONEncodesBeforeStatus(t *testing.T) {
	for _, v := range []any{&PlanResponse{Cost: math.Inf(1)}, &ExecuteResponse{Plan: &PlanNode{Card: math.NaN()}}, &HealthResponse{UptimeSec: math.NaN()}} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError || e.Error == "" {
			t.Errorf("%T: status %d, body %q (%v); want a 500 with an error body", v, rec.Code, rec.Body, err)
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusTeapot, &HealthResponse{Status: "ok"})
	if cl := rec.Header().Get("Content-Length"); rec.Code != http.StatusTeapot || cl != strconv.Itoa(rec.Body.Len()) || rec.Body.Len() == 0 {
		t.Errorf("status %d, Content-Length %q on %d bytes", rec.Code, cl, rec.Body.Len())
	}
}
