// Streaming /execute: the server side of the chunked NDJSON result
// protocol. A streaming response is one JSON value per line —
//
//	{"frame":"header", ...plan, columns...}
//	{"frame":"rows", "rows":[[...],[...]]}   (repeated, pipeline order)
//	{"frame":"trailer", ...counters, optional error...}
//
// — flushed as produced, so a sort-free plan's first rows reach the
// client while the pipeline is still joining the rest of its input; an
// order-oblivious plan cannot send its first frame until the top sort
// has consumed everything. That wire-visible difference is the paper's
// payoff at serving scale, and the streaming conformance and
// first-row tests pin it.
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

	// Every frame is built in one pooled buffer and leaves in one Write;
	// the header before the status is committed, so failing is still a 500.
	bp := bufPool.Get()
	defer bufPool.Put(bp)
	if *bp, err = AppendStreamHeader((*bp)[:0], header); err != nil {
		m.record(time.Since(begin), true)
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	writeFrame := func() error {
		if _, err := w.Write(*bp); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if err := writeFrame(); err != nil {
		m.canceled.Add(1)
		m.record(time.Since(begin), true)
		return
	}

	var rowCount int64
	execBegin := time.Now()
	g.handOver(c.pipe)
	streamErr := c.pipe.StreamContext(ctx, chunk, func(rows []exec.Row) error {
		*bp = AppendRowsFrame((*bp)[:0], rows)
		if err := writeFrame(); err != nil {
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
	// Best effort: the client may be gone, and a trailer that cannot be
	// encoded (a non-finite estimate) ends the stream without one.
	if *bp, err = AppendStreamTrailer((*bp)[:0], trailer); err == nil {
		_ = writeFrame()
	}
}
