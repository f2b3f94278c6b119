// Response encoding for the served bodies: /plan and /execute, buffered
// and streamed. encoding/json writes an indented body twice (marshal by
// reflection, then re-walk the bytes to indent) and reaches every
// streamed integer through reflect; here a body is appended once,
// indented as it goes. The output is byte for byte what encoding/json
// prints for the same public value — TestWriterMatchesEncodingJSON and
// its fuzz target hold it to that — so the struct tags in client.go
// remain the one definition of the wire format.

package server

import (
	"encoding/json"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"unicode/utf8"

	"orderopt/internal/exec"
	"orderopt/internal/freelist"
)

// bufPool recycles response buffers across requests; a buffer grows to
// the largest body it carried and the list drops idle ones over two GC
// cycles.
var bufPool freelist.List[[]byte]

// jsonWriter appends one JSON value to buf, laid out as a json.Encoder
// with SetIndent("", "  ") does when indent is set, compactly otherwise.
type jsonWriter struct {
	buf    []byte
	indent bool
	depth  int
	first  bool  // nothing written yet in the innermost open container
	err    error // first value JSON cannot carry
}

func (w *jsonWriter) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
	w.first = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	if w.indent && !w.first {
		w.newline()
	}
	w.first = false
	w.buf = append(w.buf, c)
}

func (w *jsonWriter) newline() {
	w.buf = append(w.buf, '\n')
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// elem starts the next element of the innermost container.
func (w *jsonWriter) elem() {
	if !w.first {
		w.buf = append(w.buf, ',')
	}
	w.first = false
	if w.indent {
		w.newline()
	}
}

// key starts the next member of the innermost object; k is a literal
// that needs no escaping.
func (w *jsonWriter) key(k string) *jsonWriter {
	w.elem()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, k...)
	w.buf = append(w.buf, '"', ':')
	if w.indent {
		w.buf = append(w.buf, ' ')
	}
	return w
}

// finish closes the top-level object and ends the line, as
// json.Encoder.Encode does.
func (w *jsonWriter) finish() ([]byte, error) {
	w.close('}')
	return append(w.buf, '\n'), w.err
}

func (w *jsonWriter) null() { w.buf = append(w.buf, "null"...) }

func (w *jsonWriter) int(n int64) {
	w.buf = slices.Grow(w.buf, maxIntLen)
	w.buf = w.buf[:putInt(w.buf[:cap(w.buf)], len(w.buf), n)]
}

// maxIntLen is the longest decimal int64, len("-9223372036854775808").
const maxIntLen = 20

// digitPairs holds "00" through "99", so a formatter writes two digits
// per division.
const digitPairs = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// pow10 is 10^i for every i an int64's magnitude can reach.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// putInt writes n in decimal at b[i:], which must have room for
// maxIntLen bytes, and returns the index after its last digit. The
// digits are counted first and written in place, last pair first.
func putInt(b []byte, i int, n int64) int {
	u := uint64(n)
	if n < 0 {
		b[i] = '-'
		i++
		u = -u
	}
	// floor(log10(2) * bit length) undercounts by at most one; u|1 has
	// u's digit count and at least one digit.
	v := u | 1
	d := bits.Len64(v) * 1233 >> 12
	if v >= pow10[d] {
		d++
	}
	end := i + d
	j := end
	for u >= 100 {
		q := u / 100
		r := (u - q*100) * 2
		j -= 2
		b[j], b[j+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		b[i], b[i+1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[i] = byte('0' + u)
	}
	return end
}

// str copies s between quotes when every byte is one encoding/json
// leaves alone, and hands anything else (quotes, backslashes, control
// bytes, the HTML-escaped <, > and &, non-ASCII) to encoding/json.
func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			w.buf = append(w.buf, b...)
			return
		}
	}
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '"')
}

// float follows encoding/json's floatEncoder: shortest 'f' form, 'e'
// outside [1e-6, 1e21) with e-0X trimmed to e-X, and non-finite values
// refused with the same error.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if n := len(w.buf); format == 'e' && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
		w.buf[n-2] = w.buf[n-1]
		w.buf = w.buf[:n-1]
	}
}

// The opt* members are the omitempty fields.
func (w *jsonWriter) optStr(k, s string) {
	if s != "" {
		w.key(k).str(s)
	}
}

func (w *jsonWriter) optInt(k string, n int64) {
	if n != 0 {
		w.key(k).int(n)
	}
}

func (w *jsonWriter) optBool(k string, b bool) {
	if b {
		w.key(k)
		w.buf = append(w.buf, "true"...)
	}
}

func (w *jsonWriter) strs(ss []string) {
	if ss == nil {
		w.null()
		return
	}
	w.open('[')
	for _, s := range ss {
		w.elem()
		w.str(s)
	}
	w.close(']')
}

// rows writes the buffered body's result rows; a stream frame's go
// through appendCompactRows.
func (w *jsonWriter) rows(rows [][]int64) {
	if rows == nil {
		w.null()
		return
	}
	w.open('[')
	for _, r := range rows {
		w.elem()
		if r == nil {
			w.null()
			continue
		}
		w.open('[')
		for _, v := range r {
			w.elem()
			w.int(v)
		}
		w.close(']')
	}
	w.close(']')
}

func (w *jsonWriter) planNode(n *PlanNode) {
	if n == nil {
		w.null()
		return
	}
	w.open('{')
	w.key("op").str(n.Op)
	w.key("cost").float(n.Cost)
	w.key("card").float(n.Card)
	w.optStr("relation", n.Relation)
	w.optStr("index", n.Index)
	w.optStr("sortOrder", n.SortOrder)
	w.optInt("dop", int64(n.DOP))
	w.optInt("limit", int64(n.Limit))
	if n.Left != nil {
		w.key("left").planNode(n.Left)
	}
	if n.Right != nil {
		w.key("right").planNode(n.Right)
	}
	w.close('}')
}

func (w *jsonWriter) operators(ops []exec.OpStats) {
	if ops == nil {
		w.null()
		return
	}
	w.open('[')
	for i := range ops {
		op := &ops[i]
		w.elem()
		w.open('{')
		w.key("op").str(op.Op)
		w.optStr("detail", op.Detail)
		w.key("estRows").float(op.EstRows)
		w.key("rows").int(op.Rows)
		w.key("timeNs").int(op.TimeNs)
		w.optInt("dop", int64(op.DOP))
		w.optBool("limited", op.Limited)
		w.optBool("resident", op.Resident)
		w.close('}')
	}
	w.close(']')
}

// planned writes the members an ExecuteResponse and a StreamHeader
// share, in their shared order.
func (w *jsonWriter) planned(sql, dataset, source, strategy string, cost float64, plan *PlanNode, columns []string) {
	w.key("sql").str(sql)
	w.key("dataset").str(dataset)
	w.key("source").str(source)
	w.key("strategy").str(strategy)
	w.key("cost").float(cost)
	w.key("plan").planNode(plan)
	w.key("columns").strs(columns)
}

// AppendExecuteResponse appends r as the buffered /execute body: what a
// json.Encoder with SetIndent("", "  ") writes for it, newline included.
// The error is encoding/json's for a non-finite cost or estimate.
func AppendExecuteResponse(dst []byte, r *ExecuteResponse) ([]byte, error) {
	w := jsonWriter{buf: dst, indent: true}
	w.open('{')
	w.planned(r.SQL, r.Dataset, r.Source, r.Strategy, r.Cost, r.Plan, r.Columns)
	w.key("rowCount").int(r.RowCount)
	w.key("rows").rows(r.Rows)
	w.optBool("truncated", r.Truncated)
	w.key("rowsSorted").int(r.RowsSorted)
	w.optInt("planNs", r.PlanNs)
	w.key("execNs").int(r.ExecNs)
	w.key("operators").operators(r.Operators)
	return w.finish()
}

// AppendPlanResponse appends r as the /plan body, indented like
// AppendExecuteResponse.
func AppendPlanResponse(dst []byte, r *PlanResponse) ([]byte, error) {
	w := jsonWriter{buf: dst, indent: true}
	w.open('{')
	w.key("sql").str(r.SQL)
	w.key("source").str(r.Source)
	w.key("strategy").str(r.Strategy)
	w.key("cost").float(r.Cost)
	w.optInt("planNs", r.PlanNs)
	if len(r.Residual) > 0 {
		w.key("residual").strs(r.Residual)
	}
	w.key("plan").planNode(r.Plan)
	return w.finish()
}

// AppendStreamHeader appends h as one compact NDJSON line; h.Frame is
// written as given.
func AppendStreamHeader(dst []byte, h *StreamHeader) ([]byte, error) {
	w := jsonWriter{buf: dst}
	w.open('{')
	w.key("frame").str(h.Frame)
	w.planned(h.SQL, h.Dataset, h.Source, h.Strategy, h.Cost, h.Plan, h.Columns)
	w.key("chunkRows").int(int64(h.ChunkRows))
	w.optInt("planNs", h.PlanNs)
	return w.finish()
}

// AppendRowsFrame appends the line encoding/json prints for
// StreamRows{Frame: FrameRows, Rows: rows}, straight from the pipeline.
func AppendRowsFrame(dst []byte, rows []exec.Row) []byte {
	dst = append(dst, `{"frame":"`+FrameRows+`","rows":`...)
	return append(appendCompactRows(dst, rows), '}', '\n')
}

// memoCells is the widest row whose memo lives on the stack.
const memoCells = 32

// cell memoizes one column of the row above: its value and the span
// b[start:end] its digits were written to.
type cell struct {
	v          int64
	start, end int
}

// appendCompactRows appends rows in encoding/json's compact form. A
// value equal to the one above it is not formatted again: each run of
// such columns is one copy of the row above's bytes, commas included.
// The memo compares values only, so how a stream is ordered changes how
// often it pays, never the bytes written. It lives for one call and is
// dropped at a nil row and at a change of width.
func appendCompactRows(b []byte, rows []exec.Row) []byte {
	if rows == nil {
		return append(b, "null"...)
	}
	var stack [memoCells]cell
	memo := stack[:0]
	b = append(b, '[')
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		if r == nil {
			b = append(b, "null"...)
			memo = memo[:0]
			continue
		}
		above := len(memo) == len(r)
		if !above {
			if cap(memo) < len(r) {
				memo = make([]cell, len(r))
			}
			memo = memo[:len(r)]
		}
		// Room for the row's worst case once, then every byte by index.
		p := len(b)
		b = slices.Grow(b, 2+len(r)*(maxIntLen+1))
		o := b[:cap(b)]
		o[p] = '['
		p++
		for j := 0; j < len(r); {
			if j > 0 {
				o[p] = ','
				p++
			}
			if above && r[j] == memo[j].v {
				k := j + 1
				for k < len(r) && r[k] == memo[k].v {
					k++
				}
				s, e := memo[j].start, memo[k-1].end
				for c := j; c < k; c++ {
					memo[c].start += p - s
					memo[c].end += p - s
				}
				p += copy(o[p:], o[s:e])
				j = k
				continue
			}
			memo[j].v, memo[j].start = r[j], p
			p = putInt(o, p, r[j])
			memo[j].end = p
			j++
		}
		o[p] = ']'
		b = o[:p+1]
	}
	return append(b, ']')
}

// AppendStreamTrailer appends t as one compact NDJSON line.
func AppendStreamTrailer(dst []byte, t *StreamTrailer) ([]byte, error) {
	w := jsonWriter{buf: dst}
	w.open('{')
	w.key("frame").str(t.Frame)
	w.key("rowCount").int(t.RowCount)
	w.key("rowsSorted").int(t.RowsSorted)
	w.key("execNs").int(t.ExecNs)
	if len(t.Operators) > 0 {
		w.key("operators").operators(t.Operators)
	}
	w.optStr("error", t.Error)
	w.optStr("code", t.Code)
	return w.finish()
}
