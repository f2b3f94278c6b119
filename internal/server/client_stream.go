// Client side of streaming /execute: ExecuteStream issues the request
// and returns an iterator over the NDJSON frames. A stream is never
// re-issued.

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"orderopt/internal/exec"
)

// StreamAbort is a pipeline failure reported mid-stream (in the
// trailer): the rows already consumed are a valid prefix of the
// result, and the query was not re-run — re-running a partially
// consumed stream is the caller's decision. Deliberately not a
// StatusError: the request was admitted and rows were sent.
type StreamAbort struct {
	// Kind is the lifecycle classification ("timeout", "canceled",
	// "budget"), empty for ordinary failures.
	Kind    string
	Message string
}

func (e *StreamAbort) Error() string {
	if e.Kind == "" {
		return "server: stream aborted: " + e.Message
	}
	return fmt.Sprintf("server: stream aborted (%s): %s", e.Kind, e.Message)
}

// streamFrame is the decode target for every post-header frame.
type streamFrame struct {
	Frame string    `json:"frame"`
	Rows  [][]int64 `json:"rows"`
	// Trailer fields.
	RowCount   int64          `json:"rowCount"`
	RowsSorted int64          `json:"rowsSorted"`
	ExecNs     int64          `json:"execNs"`
	Operators  []exec.OpStats `json:"operators"`
	Error      string         `json:"error"`
	Code       string         `json:"code"`
}

// ExecuteStream is an in-flight streaming /execute response. Use it
// like an iterator: Header is available immediately, Next yields rows
// in pipeline order, and after Next returns done the Trailer carries
// the full-result counters. Close may be called at any time; closing
// before the trailer cancels the server-side pipeline (the server
// counts it as a client disconnect). Not safe for concurrent use.
type ExecuteStream struct {
	header  *StreamHeader
	body    interface{ Close() error }
	dec     *json.Decoder
	buf     [][]int64
	pos     int
	trailer *StreamTrailer
	err     error
	done    bool
}

// ExecuteStream starts a streaming execution of req (req.Stream is
// forced on). See ExecuteStreamContext.
func (c *Client) ExecuteStream(req ExecuteRequest) (*ExecuteStream, error) {
	return c.ExecuteStreamContext(context.Background(), req)
}

// ExecuteStreamContext starts a streaming execution of req under ctx:
// cancelling ctx aborts the stream and the server-side pipeline. A
// non-200 status is a *StatusError. The returned stream must be Closed.
func (c *Client) ExecuteStreamContext(ctx context.Context, req ExecuteRequest) (*ExecuteStream, error) {
	req.Stream = true
	res, err := c.post(ctx, "/execute", req)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, decode(res, nil) // closes the body
	}
	dec := json.NewDecoder(res.Body)
	var h StreamHeader
	if err := dec.Decode(&h); err != nil {
		res.Body.Close()
		return nil, fmt.Errorf("server: decoding stream header: %w", err)
	}
	if h.Frame != FrameHeader {
		res.Body.Close()
		return nil, fmt.Errorf("server: stream began with %q frame, want %q", h.Frame, FrameHeader)
	}
	return &ExecuteStream{header: &h, body: res.Body, dec: dec}, nil
}

// Header returns the header frame (plan, columns, chunk size).
func (s *ExecuteStream) Header() *StreamHeader { return s.header }

// Next returns the next result row. done=false with a nil error means
// the stream ended normally and Trailer is set. Errors are terminal:
// the stream never retries or resynchronizes past one.
func (s *ExecuteStream) Next() ([]int64, bool, error) {
	if s.err != nil {
		return nil, false, s.err
	}
	for {
		if s.pos < len(s.buf) {
			row := s.buf[s.pos]
			s.pos++
			return row, true, nil
		}
		if s.done {
			return nil, false, nil
		}
		var f streamFrame
		if err := s.dec.Decode(&f); err != nil {
			return nil, false, s.fail(fmt.Errorf("server: stream cut before trailer: %w", err))
		}
		switch f.Frame {
		case FrameRows:
			s.buf, s.pos = f.Rows, 0
		case FrameTrailer:
			s.done = true
			s.trailer = &StreamTrailer{
				Frame:      f.Frame,
				RowCount:   f.RowCount,
				RowsSorted: f.RowsSorted,
				ExecNs:     f.ExecNs,
				Operators:  f.Operators,
				Error:      f.Error,
				Code:       f.Code,
			}
			s.body.Close()
			if f.Error != "" {
				return nil, false, s.fail(&StreamAbort{Kind: f.Code, Message: f.Error})
			}
			return nil, false, nil
		default:
			return nil, false, s.fail(fmt.Errorf("server: unexpected stream frame %q", f.Frame))
		}
	}
}

// fail records a terminal error, closes the body and returns the error.
func (s *ExecuteStream) fail(err error) error {
	s.err = err
	s.done = true
	s.body.Close()
	return err
}

// Trailer returns the trailer frame after Next reported done (nil
// before that).
func (s *ExecuteStream) Trailer() *StreamTrailer { return s.trailer }

// Collect drains the remaining rows. On a mid-stream failure the rows
// received up to the cut are returned alongside the error.
func (s *ExecuteStream) Collect() ([][]int64, error) {
	var out [][]int64
	for {
		row, ok, err := s.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}

// Close releases the stream. Closing before the trailer arrives severs
// the connection, which cancels the server-side pipeline within one
// cancellation poll.
func (s *ExecuteStream) Close() error {
	if !s.done {
		s.done = true
		if s.err == nil {
			s.err = fmt.Errorf("server: stream closed before trailer")
		}
	}
	return s.body.Close()
}
