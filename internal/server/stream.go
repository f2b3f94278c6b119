// Streaming /execute: the server side of the chunked NDJSON result
// protocol. A streaming response is one JSON value per line —
//
//	{"frame":"header", ...plan, columns...}
//	{"frame":"rows", "rows":[[...],[...]]}   (repeated, pipeline order)
//	{"frame":"trailer", ...counters, optional error...}
//
// — sent as produced, so a sort-free plan's first rows reach the
// client while the pipeline is still joining the rest of its input; an
// order-oblivious plan cannot send its first frame until the top sort
// has consumed everything. That wire-visible difference is the paper's
// payoff at serving scale, and the streaming conformance and
// first-row tests pin it.
//
// Rows reach the frame one at a time (exec.Pipeline.StreamPieces), and
// a bare join spine at the root hands each on as its pieces, saying
// which are the row above's: it never builds the row, and the frame
// copies those columns' bytes. The bytes are AppendRowsFrame's.
//
// The header, the first rows frame and the trailer are written and
// flushed at once. A later rows frame is batched with the ones after
// it: it leaves, whole and unchanged, when maxPendingBytes are pending
// or maxFrameDelay after the oldest pending frame was produced,
// whichever comes first. Under net/http every flush is three socket
// writes (the chunk's size line, its body, its CRLF), so a stream that
// flushes frame by frame spends much of its time writing to the socket.
//
// The HTTP status is committed (200) with the header frame, before the
// pipeline has run; failures after that point are reported in the
// trailer's error/code fields, never as an HTTP status. Client
// disconnect mid-stream surfaces as a write error or context
// cancellation, aborts the pipeline through its Life, and is counted
// as canceled (the 499 convention), not as a server fault.

package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/freelist"
)

// Frame discriminators of the streaming /execute protocol.
const (
	FrameHeader  = "header"
	FrameRows    = "rows"
	FrameTrailer = "trailer"
)

// StreamHeader is the first frame of a streaming /execute response:
// everything known before the pipeline runs — the plan, its cost and
// source, and the result column names.
type StreamHeader struct {
	Frame   string    `json:"frame"` // "header"
	SQL     string    `json:"sql"`
	Dataset string    `json:"dataset"`
	Source  string    `json:"source"` // cold, prepared or cachehit
	Cost    float64   `json:"cost"`
	Plan    *PlanNode `json:"plan"`
	Columns []string  `json:"columns"`
	// ChunkRows is the server's effective rows-per-frame cap (the
	// request's chunkRows clamped to [1, MaxStreamChunk], defaulted).
	ChunkRows int   `json:"chunkRows"`
	PlanNs    int64 `json:"planNs,omitempty"`

	block *planBlock // the plan's members, encoded; set by the server
}

// StreamRows is one chunk of result rows, in pipeline order.
type StreamRows struct {
	Frame string    `json:"frame"` // "rows"
	Rows  [][]int64 `json:"rows"`
}

// StreamTrailer ends a streaming response: the full-result counters on
// success, or the lifecycle error ("code": timeout/canceled/budget,
// empty for ordinary failures) when the pipeline died mid-stream. The
// row frames already sent remain a valid prefix of the result.
type StreamTrailer struct {
	Frame      string         `json:"frame"` // "trailer"
	RowCount   int64          `json:"rowCount"`
	RowsSorted int64          `json:"rowsSorted"`
	ExecNs     int64          `json:"execNs"`
	Operators  []exec.OpStats `json:"operators,omitempty"`
	Error      string         `json:"error,omitempty"`
	Code       string         `json:"code,omitempty"`
}

// executeStream answers one admitted, dataset-pinned /execute request
// in streaming mode. Planning and compilation failures are still plain
// HTTP errors (nothing has been committed); once the header frame is
// written, the status is 200 and any later failure rides the trailer.
func (s *Server) executeStream(ctx context.Context, w http.ResponseWriter, req ExecuteRequest, ds *exec.Dataset, g *memGrant) {
	m := &s.executeMetrics
	begin := time.Now()
	c, code, err := s.compileRequest(ctx, req, ds)
	if err != nil {
		m.record(time.Since(begin), true)
		lcCode, kind := m.classify(err)
		if lcCode != 0 {
			code = lcCode
		}
		writeErrorCoded(w, code, err.Error(), kind, nil)
		return
	}
	chunk := exec.ClampStreamChunk(req.ChunkRows)
	b := c.block
	header := &StreamHeader{
		Frame:     FrameHeader,
		SQL:       req.SQL,
		Dataset:   ds.Name,
		Source:    c.pd.Source.String(),
		Cost:      b.cost,
		Plan:      b.plan,
		Columns:   b.columns,
		ChunkRows: chunk,
		block:     b,
	}
	if c.pd.Result != nil {
		header.PlanNs = c.pd.Result.PlanTime.Nanoseconds()
	}

	// Every frame is built in one pooled buffer; the header before the
	// status is committed, so failing is still a 500.
	bp := bufPool.Get()
	defer bufPool.Put(bp)
	if *bp, err = AppendStreamHeader((*bp)[:0], header); err != nil {
		m.record(time.Since(begin), true)
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fw := newFrameWriter(w, bp)
	defer fw.close(nil) // before bp goes back to the pool
	if err := fw.flush(); err != nil {
		m.canceled.Add(1)
		m.record(time.Since(begin), true)
		return
	}

	execBegin := time.Now()
	g.handOver(c.pipe)
	streamErr := c.pipe.StreamPieces(ctx, chunk, fw)
	trailer := &StreamTrailer{
		Frame:      FrameTrailer,
		RowCount:   fw.open.rows,
		RowsSorted: c.pipe.RowsSorted(),
		ExecNs:     time.Since(execBegin).Nanoseconds(),
		Operators:  c.opsSnapshot(),
	}
	if streamErr != nil {
		_, trailer.Code = m.classify(streamErr)
		trailer.Error = streamErr.Error()
	}
	m.record(time.Since(begin), streamErr != nil)
	fw.close(trailer)
}

// A rows frame after the first waits in the frame writer's buffer until
// maxPendingBytes are pending or maxFrameDelay has passed since the
// oldest pending frame was produced.
const (
	maxPendingBytes = 64 << 10
	maxFrameDelay   = time.Millisecond
)

// openFrames holds the frames streams append rows to (openFrame).
var openFrames freelist.List[openFrame]

// openFrame is the frame a stream appends rows to, and the rows of the
// frames it ended.
type openFrame struct {
	b    []byte
	enc  rowsFrame
	rows int64
}

// frameWriter sends a stream's frames to w in batches: it is the
// pipeline's exec.RowSink. The handler appends rows to the open frame,
// its own, and each cut adds the frame to buf; a timer flushes what has
// waited maxFrameDelay from its own goroutine. mu serializes the two
// over w and buf, and once close has run the timer touches neither: w
// belongs to net/http again and buf to the pool.
//
// A failed write is kept and returned by every later cut. The timer's
// failure reaches the pipeline through the next cut, or sooner through
// the request context, which net/http cancels when a write to the
// connection fails.
type frameWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher
	buf     *[]byte // the frames not yet written
	open    *openFrame
	timer   *time.Timer // armed whenever buf goes from empty to pending
	frames  int         // rows frames appended
	err     error
	closed  bool
}

func newFrameWriter(w http.ResponseWriter, buf *[]byte) *frameWriter {
	f := &frameWriter{w: w, buf: buf, open: openFrames.Get()}
	f.open.rows, f.open.b = 0, f.open.enc.begin(f.open.b[:0])
	f.flusher, _ = w.(http.Flusher)
	return f
}

// flush writes and flushes whatever is pending: the header frame the
// caller left in buf.
func (f *frameWriter) flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushLocked()
}

// Row appends a row to the open frame.
func (f *frameWriter) Row(pieces []exec.Row, low int) error {
	f.open.b = f.open.enc.row(f.open.b, pieces, low)
	return nil
}

// Cut adds the open frame to buf and opens the next. A failed write
// means the client is gone: it counts as a cancellation, a 499.
func (f *frameWriter) Cut() error {
	o := f.open
	if err := f.add(o.enc.end(o.b)); err != nil {
		return fmt.Errorf("writing rows frame: %w: %w", context.Canceled, err)
	}
	o.rows += int64(o.enc.rows)
	o.b = o.enc.begin(o.b[:0])
	return nil
}

// add appends a rows frame to buf. The first is flushed at once, so the
// client sees the first rows as early as the pipeline produces them.
func (f *frameWriter) add(frame []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	pending := len(*f.buf)
	*f.buf = append(*f.buf, frame...)
	f.frames++
	switch {
	case f.frames == 1 || len(*f.buf) >= maxPendingBytes:
		return f.flushLocked()
	case pending == 0:
		if f.timer == nil {
			f.timer = time.AfterFunc(maxFrameDelay, f.onTimer)
		} else {
			f.timer.Reset(maxFrameDelay)
		}
	}
	return nil
}

// onTimer flushes the frames that have waited maxFrameDelay. A callback
// that was already running when a cut flushed and refilled buf flushes
// the new frames early, never late.
func (f *frameWriter) onTimer() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed && len(*f.buf) > 0 {
		_ = f.flushLocked() // kept in f.err for the next cut
	}
}

// close stops the timer and hands w, buf and the open frame back. With
// a trailer it first sends whatever is pending and the trailer, in one
// write; a trailer that cannot be encoded (a non-finite estimate) ends
// the stream without one. Without a trailer, pending frames are dropped.
// Only the first call does anything.
func (f *frameWriter) close(t *StreamTrailer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	openFrames.Put(f.open)
	if f.timer != nil {
		f.timer.Stop()
	}
	if t == nil || f.err != nil {
		return
	}
	if b, err := AppendStreamTrailer(*f.buf, t); err == nil {
		*f.buf = b
	}
	if len(*f.buf) > 0 {
		_ = f.flushLocked() // best effort: the client may be gone
	}
}

func (f *frameWriter) flushLocked() error {
	if f.err != nil {
		return f.err
	}
	_, f.err = f.w.Write(*f.buf)
	*f.buf = (*f.buf)[:0]
	if f.err == nil && f.flusher != nil {
		f.flusher.Flush()
	}
	return f.err
}
