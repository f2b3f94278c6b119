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
	Frame    string    `json:"frame"` // "header"
	SQL      string    `json:"sql"`
	Dataset  string    `json:"dataset"`
	Source   string    `json:"source"`   // cold, prepared or cachehit
	Strategy string    `json:"strategy"` // exact or linearized
	Cost     float64   `json:"cost"`
	Plan     *PlanNode `json:"plan"`
	Columns  []string  `json:"columns"`
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
		Strategy:  b.strategy,
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

	var rowCount int64
	execBegin := time.Now()
	g.handOver(c.pipe)
	streamErr := c.pipe.StreamContext(ctx, chunk, func(rows []exec.Row) error {
		if err := fw.rows(rows); err != nil {
			// A failed write means the client is gone; fold it into the
			// cancellation taxonomy so it classifies (and counts) as 499.
			return fmt.Errorf("writing rows frame: %w: %w", context.Canceled, err)
		}
		rowCount += int64(len(rows))
		return nil
	})
	trailer := &StreamTrailer{
		Frame:      FrameTrailer,
		RowCount:   rowCount,
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

// frameWriter sends a stream's frames to w in batches. The handler
// appends frames; a timer flushes what has waited maxFrameDelay from
// its own goroutine. mu serializes the two over w and buf, and once
// close has run the timer touches neither: w belongs to net/http again
// and buf to the pool.
//
// A failed write is kept and returned by every later call. The timer's
// failure reaches the pipeline through the next rows call, or sooner
// through the request context, which net/http cancels when a write to
// the connection fails.
type frameWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher
	buf     *[]byte     // the frames not yet written
	timer   *time.Timer // armed whenever buf goes from empty to pending
	frames  int         // rows frames appended
	err     error
	closed  bool
}

func newFrameWriter(w http.ResponseWriter, buf *[]byte) *frameWriter {
	f := &frameWriter{w: w, buf: buf}
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

// rows appends one rows frame. The first is flushed at once, so the
// client sees the first rows as early as the pipeline produces them.
func (f *frameWriter) rows(rows []exec.Row) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	pending := len(*f.buf)
	*f.buf = AppendRowsFrame(*f.buf, rows)
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
// that was already running when rows flushed and refilled buf flushes
// the new frames early, never late.
func (f *frameWriter) onTimer() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed && len(*f.buf) > 0 {
		_ = f.flushLocked() // kept in f.err for the next rows call
	}
}

// close stops the timer and hands w and buf back. With a trailer it
// first sends whatever is pending and the trailer, in one write; a
// trailer that cannot be encoded (a non-finite estimate) ends the
// stream without one. Without a trailer, pending frames are dropped.
// Only the first call does anything.
func (f *frameWriter) close(t *StreamTrailer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
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
