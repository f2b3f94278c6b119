package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// thinClient is the timed client: one keep-alive TCP connection, a
// pre-rendered request written verbatim, the response read to its end
// into a reused buffer. It parses only what the benchmark asserts on
// (status, "source", row count, frame count), so a request's time and
// allocations are the server's — the shipped server.Client spends more
// than the server does decoding a streamed result (see client.decode_ms).
type thinClient struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body []byte // the last response body; valid until the next do
}

// reply is what the thin client learned about one response.
type reply struct {
	status int
	// firstByte is send → first body byte; firstFrame is send → end of
	// the first rows frame (the body's second newline; streams only);
	// total is send → last body byte.
	firstByte, firstFrame, total time.Duration
	source                       string
	rows                         int64 // "rowCount"; 0 when the response has none
	frames                       int   // newline count of a streamed body
	streamErr                    bool  // the stream's trailer carries an error
}

func dial(addr string) (*thinClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dialing server: %w", err)
	}
	return &thinClient{addr: addr, conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *thinClient) close() { c.conn.Close() }

// redial replaces a connection a failed request left in an unknown
// protocol state.
func (c *thinClient) redial() error {
	c.conn.Close()
	n, err := dial(c.addr)
	if err != nil {
		return err
	}
	*c = *n
	return nil
}

// line reads one CRLF-terminated protocol line; the slice is valid
// until the next read.
func (c *thinClient) line() ([]byte, error) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

// do writes req and reads the response. stream says the body is NDJSON
// frames, so frame arrival is timed and the trailer parsed. An error
// means the connection is unusable (call redial); an HTTP error status
// is a reply, not an error.
func (c *thinClient) do(req []byte, stream bool) (reply, error) {
	var r reply
	start := time.Now()
	if _, err := c.conn.Write(req); err != nil {
		return r, fmt.Errorf("writing request: %w", err)
	}
	l, err := c.line()
	if err != nil {
		return r, fmt.Errorf("reading status line: %w", err)
	}
	if len(l) < 12 {
		return r, fmt.Errorf("malformed status line %q", l)
	}
	if r.status, err = strconv.Atoi(string(l[9:12])); err != nil {
		return r, fmt.Errorf("malformed status line %q", l)
	}
	chunked, length := false, -1
	for {
		if l, err = c.line(); err != nil {
			return r, fmt.Errorf("reading headers: %w", err)
		}
		if len(l) == 0 {
			break
		}
		name, value, _ := bytes.Cut(l, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return r, fmt.Errorf("malformed Content-Length %q", value)
			}
		}
	}

	c.body = c.body[:0]
	// grow reads n more body bytes and times the frame boundaries in them.
	grow := func(n int) error {
		at := len(c.body)
		if cap(c.body) < at+n {
			c.body = append(make([]byte, 0, 2*(at+n)), c.body...)
		}
		c.body = c.body[:at+n]
		if _, err := io.ReadFull(c.br, c.body[at:]); err != nil {
			return fmt.Errorf("reading body: %w", err)
		}
		if stream {
			before := r.frames
			r.frames += bytes.Count(c.body[at:], []byte("\n"))
			if before < 2 && r.frames >= 2 {
				r.firstFrame = time.Since(start)
			}
		}
		return nil
	}
	switch {
	case chunked:
		for {
			if l, err = c.line(); err != nil {
				return r, fmt.Errorf("reading chunk size: %w", err)
			}
			if r.firstByte == 0 {
				r.firstByte = time.Since(start)
			}
			hex, _, _ := bytes.Cut(l, []byte(";"))
			n, err := strconv.ParseUint(string(hex), 16, 31)
			if err != nil {
				return r, fmt.Errorf("malformed chunk size %q", l)
			}
			if n == 0 {
				// Trailer section: header lines up to the blank one.
				for {
					if l, err = c.line(); err != nil {
						return r, fmt.Errorf("reading chunk trailer: %w", err)
					}
					if len(l) == 0 {
						break
					}
				}
				break
			}
			if err := grow(int(n)); err != nil {
				return r, err
			}
			if _, err := c.br.Discard(2); err != nil { // the chunk's CRLF
				return r, fmt.Errorf("reading chunk end: %w", err)
			}
		}
	case length >= 0:
		r.firstByte = time.Since(start)
		if err := grow(length); err != nil {
			return r, err
		}
	default:
		return r, errors.New("response has neither Content-Length nor chunked encoding")
	}
	r.total = time.Since(start)

	if stream && r.status == 200 {
		header, rest, _ := bytes.Cut(c.body, []byte("\n"))
		r.source = stringField(header, `"source":"`)
		trailer := bytes.TrimRight(rest, "\n")
		if i := bytes.LastIndexByte(trailer, '\n'); i >= 0 {
			trailer = trailer[i+1:]
		}
		r.rows = intField(trailer, `"rowCount":`)
		r.streamErr = !bytes.Contains(trailer, []byte(`"frame":"trailer"`)) ||
			bytes.Contains(trailer, []byte(`"error":`))
	} else {
		// Buffered responses are indented JSON: `"key": value`.
		r.source = stringField(c.body, `"source": "`)
		r.rows = intField(c.body, `"rowCount": `)
	}
	return r, nil
}

// stringField returns the string that follows the first occurrence of
// prefix (a key with its opening quote) up to the closing quote.
func stringField(b []byte, prefix string) string {
	i := bytes.Index(b, []byte(prefix))
	if i < 0 {
		return ""
	}
	b = b[i+len(prefix):]
	if j := bytes.IndexByte(b, '"'); j >= 0 {
		return string(b[:j])
	}
	return ""
}

// intField returns the integer that follows the first occurrence of
// prefix, 0 when absent.
func intField(b []byte, prefix string) int64 {
	i := bytes.Index(b, []byte(prefix))
	if i < 0 {
		return 0
	}
	b = b[i+len(prefix):]
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	n, _ := strconv.ParseInt(string(b[:j]), 10, 64) // empty digits read as 0, like absent
	return n
}
