package exec

import (
	"context"

	"orderopt/internal/freelist"
)

// DefaultStreamChunk is the rows-per-sink-call used when the caller
// does not pick a chunk size: large enough to amortize the per-chunk
// encode/flush, small enough that the first chunk of a pipelined plan
// leaves the process long before the pipeline finishes.
const DefaultStreamChunk = 256

// MaxStreamChunk caps caller-picked chunk sizes; beyond this a chunk
// is just a buffered response with extra steps.
const MaxStreamChunk = 8192

// ClampStreamChunk is the rows-per-sink-call StreamContext uses when
// asked for chunk: DefaultStreamChunk for chunk <= 0, otherwise chunk
// capped at MaxStreamChunk.
func ClampStreamChunk(chunk int) int {
	if chunk <= 0 {
		return DefaultStreamChunk
	}
	return min(chunk, MaxStreamChunk)
}

// streamBufs holds the root loop's scratch: a whole row's one-piece slot
// and StreamContext's chunk of rows. Only chunks of DefaultStreamChunk
// rows are kept, cleared.
var streamBufs freelist.List[streamBuf]

type streamBuf struct {
	one  [1]Row
	rows []Row
}

// RowSink takes rows one at a time, as the pieces that concatenated are
// the row, valid only for the call: every piece below low is the same
// slice as in the row before. Cut follows every chunk-th row and the last.
type RowSink interface {
	Row(pieces []Row, low int) error
	Cut() error
}

// StreamContext runs the pipeline and hands result rows to sink in
// pipeline order, at most ClampStreamChunk(chunk) rows per call: the one
// drain, behind ExecuteContext too. A sort-free plan's first chunk
// reaches the sink while the rest of the input is still being joined,
// whereas an order-oblivious plan's top sort must consume everything
// before the first chunk appears — the paper's payoff, observable at
// the wire. Cancellation (client disconnect, deadline), polled where
// rows start, surfaces as an error wrapping ErrCanceled and ctx.Err().
//
// The slice passed to sink, and the rows in it, are only valid for the
// duration of the call: once sink returns, the slice is reused and the
// rows are overwritten by rows the pipeline carves later (a streamed
// join spine's output is a ring of chunk rows plus the stats wrappers'
// bursts). sink copies what it keeps. A sink error (a client that went
// away, a blocked write) aborts the pipeline via its Life, so producers
// — including exchange morsel workers — stop within one cancellation
// poll. Whatever the pipeline charged against its budget, and its pooled
// chunks, are released before return, success or not.
func (p *Pipeline) StreamContext(ctx context.Context, chunk int, sink func([]Row) error) error {
	chunk = ClampStreamChunk(chunk)
	// The buffer is taken before Open, as the operators take theirs, so
	// a long Open does not age it out of the list.
	d := streamBufs.Get()
	if cap(d.rows) < chunk {
		d.rows = make([]Row, 0, max(chunk, DefaultStreamChunk))
	}
	return p.stream(ctx, chunk, d, nil, sink)
}

// StreamPieces is StreamContext with the rows handed to sink one at a
// time. A root that is a bare join spine (untimed, unhooked, emitting
// every piece whole) builds no row: sink gets its pieces. Any other
// root's row is one piece.
func (p *Pipeline) StreamPieces(ctx context.Context, chunk int, sink RowSink) error {
	return p.stream(ctx, ClampStreamChunk(chunk), streamBufs.Get(), sink, nil)
}

// stream is the one root loop. It hands each row to sink, as a bare
// spine root's pieces or whole in d.one, and cuts every chunk rows; or,
// for StreamContext, it collects whole rows in d.rows and hands them to
// collect at each cut. d goes back to streamBufs.
func (p *Pipeline) stream(ctx context.Context, chunk int, d *streamBuf, sink RowSink, collect func([]Row) error) (err error) {
	defer func() {
		clear(d.rows[:cap(d.rows)])
		d.one[0], d.rows = nil, d.rows[:0]
		if cap(d.rows) != DefaultStreamChunk {
			d.rows = nil
		}
		streamBufs.Put(d)
	}()
	defer p.Life.releaseAll()
	if err := p.Life.bind(ctx); err != nil {
		return err
	}
	// Producers (exchange workers mid-morsel) observe a failure this way
	// even when it originated in the sink rather than the pipeline.
	defer func() { p.Life.abort(err) }()
	root := p.Root
	defer root.Close() // before Open, so a panic inside Open closes too
	sp, _ := root.(*spineIter)
	if collect != nil || sp != nil && sp.fusedOut != nil {
		sp = nil
	}
	if p.rootRing != nil {
		// The row loop below holds fewer than chunk rows whenever it asks
		// for one: it hands a full chunk to sink and forgets it first.
		p.rootRing.window = chunk + p.rootSlack
	}
	if err := root.Open(); err != nil {
		return err
	}
	held := 0 // rows since the last cut
	for n := 0; ; n++ {
		if n&(CancelCheckInterval-1) == 0 {
			if err := p.Life.Err(); err != nil {
				return err
			}
		}
		row, low := d.one[:], 0
		var ok bool
		if sp != nil {
			_, ok, err = sp.advance(false)
			row, low = sp.pieces, sp.low
		} else {
			row[0], ok, err = root.Next()
		}
		if ok && err == nil {
			if held++; collect != nil {
				d.rows = append(d.rows, row[0])
			} else {
				err = sink.Row(row, low)
			}
		}
		if err == nil && (held == chunk || !ok && held > 0) {
			if held = 0; collect != nil {
				err, d.rows = collect(d.rows), d.rows[:0]
			} else {
				err = sink.Cut()
			}
		}
		if err != nil || !ok {
			return err
		}
	}
}
