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
	"cmp"
	"encoding/binary"
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

// digitQuads[n] is n's four zero-padded digits, the first in the low
// byte, so one little-endian store writes them in order.
var digitQuads = func() (t [10000]uint32) {
	for n := range t {
		for k, d := 0, n; k < 4; k, d = k+1, d/10 {
			t[n] |= uint32('0'+d%10) << (8 * (3 - k))
		}
	}
	return t
}()

// putInt writes n in decimal at b[i:], which must have room for
// maxIntLen bytes, and returns the index after its last digit. A
// magnitude below 10^4 is one 4-byte store of its zero-padded digits,
// shifted past the leading zeros, and one below 10^8 one 8-byte store;
// a larger one is the digits of its quotient by 10^8 followed by eight
// more. A store reaches up to seven bytes past the digits it means; the
// next store or the maxIntLen room absorbs them.
func putInt(b []byte, i int, n int64) int {
	u := uint64(n)
	if n < 0 {
		b[i] = '-'
		i++
		u = -u
	}
	if u < 1e4 {
		return put4(b, i, u)
	}
	if u >= 1e8 {
		i = putInt(b, i, int64(u/1e8)) // below 10^12, so not negative
		binary.LittleEndian.PutUint64(b[i:], digits8(u%1e8))
		return i + 8
	}
	v := digits8(u)
	// The leading zeros are the low bytes that XOR '0' clears; bit 56
	// stops the count at seven, so 0 keeps its one digit.
	z := bits.TrailingZeros64(v^0x3030303030303030|1<<56) / 8
	binary.LittleEndian.PutUint64(b[i:], v>>(8*z))
	return i + 8 - z
}

// put4 is putInt of u < 10^4: its zero-padded digits in one 4-byte
// store, shifted past the leading zeros as putInt's 8-byte one is.
func put4(b []byte, i int, u uint64) int {
	v := digitQuads[u]
	z := bits.TrailingZeros32(v^0x30303030|1<<24) / 8
	binary.LittleEndian.PutUint32(b[i:], v>>(8*z))
	return i + 4 - z
}

// digits8 is u's eight zero-padded digits, u < 10^8, the first in the
// low byte.
func digits8(u uint64) uint64 {
	hi := u / 1e4
	return uint64(digitQuads[hi]) | uint64(digitQuads[u-hi*1e4])<<32
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
// through rowsFrame.
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

// operators writes ops; heads, when it holds an entry per operator, is
// each one's opening as planBlock keeps it, copied in place of writing
// its op, detail and estRows.
func (w *jsonWriter) operators(ops []exec.OpStats, heads [][]byte) {
	if ops == nil {
		w.null()
		return
	}
	if len(heads) != len(ops) {
		heads = nil
	}
	w.open('[')
	for i := range ops {
		op := &ops[i]
		w.elem()
		if heads != nil {
			w.buf = append(w.buf, heads[i]...)
			w.depth++
			w.first = false
		} else {
			w.open('{')
			w.opHead(op)
		}
		w.key("rows").int(op.Rows)
		w.key("timeNs").int(op.TimeNs)
		w.optInt("dop", int64(op.DOP))
		w.optBool("limited", op.Limited)
		w.optBool("resident", op.Resident)
		w.close('}')
	}
	w.close(']')
}

// opHead writes the members of an operator's object that its plan
// decides.
func (w *jsonWriter) opHead(op *exec.OpStats) {
	w.key("op").str(op.Op)
	w.optStr("detail", op.Detail)
	w.key("estRows").float(op.EstRows)
}

// requested writes the members an ExecuteResponse and a StreamHeader
// take from the request, in their shared order.
func (w *jsonWriter) requested(sql, dataset, source string) {
	w.key("sql").str(sql)
	w.key("dataset").str(dataset)
	w.key("source").str(source)
}

// planned writes the members an ExecuteResponse and a StreamHeader take
// from the plan, in their shared order, after the requested ones.
func (w *jsonWriter) planned(cost float64, plan *PlanNode, columns []string) {
	w.key("cost").float(cost)
	w.key("plan").planNode(plan)
	w.key("columns").strs(columns)
}

// copyBlock appends members a writer in the same state encoded ahead of
// time, with the error that encoding met.
func (w *jsonWriter) copyBlock(b []byte, err error) {
	w.buf = append(w.buf, b...)
	if w.err == nil {
		w.err = err
	}
}

// planBlock is what an /execute response holds that its cached plan
// alone decides: the members cost, plan and columns, and each
// operator's op, detail and estRows. The server builds one per
// prepared statement, on the statement's first /execute
// (planner.Planned.Memo), and every response served from the statement's
// plan copies its bytes, which are
// the ones the writer writes for the public fields the server fills
// from the block too.
type planBlock struct {
	cost    float64
	plan    *PlanNode
	columns []string

	// body and header are the plan's members as the buffered body and the
	// stream header write them, from the comma before "cost".
	body, header []byte
	// heads are the buffered body's operator objects, each through its
	// estRows.
	heads [][]byte
	err   error // encoding/json's, for a non-finite cost or estimate
}

func newPlanBlock(cost float64, plan *PlanNode, columns []string, ops []*exec.OpStats) *planBlock {
	b := &planBlock{cost: cost, plan: plan, columns: columns}
	// Depth 1, past the request's members: where the writer stands when
	// it reaches "cost".
	w := jsonWriter{indent: true, depth: 1}
	w.planned(cost, plan, columns)
	c := jsonWriter{depth: 1}
	c.planned(cost, plan, columns)
	b.body, b.header, b.err = w.buf, c.buf, cmp.Or(w.err, c.err)
	b.heads = make([][]byte, len(ops))
	for i, op := range ops {
		// Depth 2 is the operators array's, as the body nests it.
		h := jsonWriter{indent: true, depth: 2}
		h.open('{')
		h.opHead(op)
		b.heads[i], b.err = h.buf, cmp.Or(b.err, h.err)
	}
	return b
}

// AppendExecuteResponse appends r as the buffered /execute body: what a
// json.Encoder with SetIndent("", "  ") writes for it, newline included.
// The error is encoding/json's for a non-finite cost or estimate. A
// response the server built copies its plan's members from the plan's
// block instead of writing them.
func AppendExecuteResponse(dst []byte, r *ExecuteResponse) ([]byte, error) {
	w := jsonWriter{buf: dst, indent: true}
	w.open('{')
	w.requested(r.SQL, r.Dataset, r.Source)
	var heads [][]byte
	if b := r.block; b != nil {
		w.copyBlock(b.body, b.err)
		heads = b.heads
	} else {
		w.planned(r.Cost, r.Plan, r.Columns)
	}
	w.key("rowCount").int(r.RowCount)
	w.key("rows").rows(r.Rows)
	w.optBool("truncated", r.Truncated)
	w.key("rowsSorted").int(r.RowsSorted)
	w.optInt("planNs", r.PlanNs)
	w.key("execNs").int(r.ExecNs)
	w.key("operators").operators(r.Operators, heads)
	return w.finish()
}

// AppendPlanResponse appends r as the /plan body, indented like
// AppendExecuteResponse.
func AppendPlanResponse(dst []byte, r *PlanResponse) ([]byte, error) {
	w := jsonWriter{buf: dst, indent: true}
	w.open('{')
	w.key("sql").str(r.SQL)
	w.key("source").str(r.Source)
	w.key("cost").float(r.Cost)
	w.optInt("planNs", r.PlanNs)
	if len(r.Residual) > 0 {
		w.key("residual").strs(r.Residual)
	}
	w.key("plan").planNode(r.Plan)
	return w.finish()
}

// AppendStreamHeader appends h as one compact NDJSON line; h.Frame is
// written as given, and the plan's members copied from its block when
// the server built h.
func AppendStreamHeader(dst []byte, h *StreamHeader) ([]byte, error) {
	w := jsonWriter{buf: dst}
	w.open('{')
	w.key("frame").str(h.Frame)
	w.requested(h.SQL, h.Dataset, h.Source)
	if b := h.block; b != nil {
		w.copyBlock(b.header, b.err)
	} else {
		w.planned(h.Cost, h.Plan, h.Columns)
	}
	w.key("chunkRows").int(int64(h.ChunkRows))
	w.optInt("planNs", h.PlanNs)
	return w.finish()
}

// AppendRowsFrame appends the line encoding/json prints for
// StreamRows{Frame: FrameRows, Rows: rows}, straight from the pipeline.
func AppendRowsFrame(dst []byte, rows []exec.Row) []byte {
	if rows == nil {
		return append(dst, `{"frame":"`+FrameRows+`","rows":null}`+"\n"...)
	}
	var f rowsFrame
	dst = f.begin(dst)
	for _, r := range rows {
		dst = f.row(dst, []exec.Row{r}, 0)
	}
	return f.end(dst)
}

// memoCells is how many leading columns of the row above the memo
// tracks; columns past it are always formatted.
const memoCells = 32

// rowsFrame appends a rows frame a row at a time, each row handed as the
// pieces that concatenated are the row. The prefix of columns equal to
// the row above (same width) is one copy of that row's bytes from its
// '[', commas included: the pieces below low by the caller's word, then
// the columns equal to the frame's copy of the row above's values. A
// left-deep spine puts the columns constant over a fan-out first. The
// state lives for one frame, as a frame buffer is reused.
type rowsFrame struct {
	above [memoCells]int64 // the row above's first memoCells values
	ends  [memoCells]int32 // where they end, counted from its '[', which a copy keeps
	start int              // the row above's '[' in the buffer; -1: nothing to copy
	width int              // the row above's width
	rows  int              // rows appended
}

func (f *rowsFrame) begin(b []byte) []byte {
	f.start, f.rows = -1, 0
	return append(b, `{"frame":"`+FrameRows+`","rows":[`...)
}

func (f *rowsFrame) end(b []byte) []byte { return append(b, "]}\n"...) }

// row appends the row that pieces concatenated are; the pieces below
// low are those of the row above, and one nil piece is a nil row.
func (f *rowsFrame) row(b []byte, pieces []exec.Row, low int) []byte {
	if f.rows++; f.rows > 1 {
		b = append(b, ',')
	}
	if len(pieces) == 1 && pieces[0] == nil {
		f.start = -1
		return append(b, "null"...)
	}
	width := 0
	for _, p := range pieces {
		width += len(p)
	}
	// Column k, the first not copied, is pieces[pi][off].
	k, pi, off := 0, 0, 0
	if f.start >= 0 && width == f.width {
		for ; pi < low && k+len(pieces[pi]) <= memoCells; pi++ {
			k += len(pieces[pi])
		}
		for n := min(width, memoCells); pi < len(pieces) && k < n; pi, off = pi+1, 0 {
			p, above := pieces[pi], f.above[k:n]
			for off < len(p) && off < len(above) && p[off] == above[off] {
				off++
			}
			if k += off; off < len(p) {
				break
			}
		}
	}
	// Room for the row's worst case once, then every byte by index.
	p := len(b)
	b = slices.Grow(b, 2+width*(maxIntLen+1))
	o := b[:cap(b)]
	o[p] = '['
	n := 1
	if k > 0 {
		n = copy(o[p:], o[f.start:f.start+int(f.ends[k-1])])
	}
	start := p
	f.start, f.width = p, width
	p += n
	for j := k; pi < len(pieces); pi, off = pi+1, 0 {
		for _, v := range pieces[pi][off:] {
			if j > 0 {
				o[p] = ','
				p++
			}
			if uint64(v) < 1e4 {
				p = put4(o, p, uint64(v))
			} else {
				p = putInt(o, p, v)
			}
			if j < memoCells {
				f.above[j], f.ends[j] = v, int32(p-start)
			}
			j++
		}
	}
	o[p] = ']'
	return o[:p+1]
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
		w.key("operators").operators(t.Operators, nil)
	}
	w.optStr("error", t.Error)
	w.optStr("code", t.Code)
	return w.finish()
}
