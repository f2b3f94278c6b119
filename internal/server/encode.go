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
	"strconv"
	"sync"
	"unicode/utf8"

	"orderopt/internal/exec"
)

// bufPool recycles response buffers across requests; a buffer grows to
// the largest body it carried and the pool drops idle ones at GC.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

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

func (w *jsonWriter) null()       { w.buf = append(w.buf, "null"...) }
func (w *jsonWriter) int(n int64) { w.buf = strconv.AppendInt(w.buf, n, 10) }

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

// appendRows writes a result-row array from either spelling of a row:
// the buffered body's [][]int64 or the stream sink's []exec.Row.
func appendRows[R ~[]int64](w *jsonWriter, rows []R) {
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
	w.key("rows")
	appendRows(&w, r.Rows)
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
	w := jsonWriter{buf: dst}
	w.open('{')
	w.key("frame").str(FrameRows)
	w.key("rows")
	appendRows(&w, rows)
	w.close('}')
	return append(w.buf, '\n')
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
