package exec

import "context"

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

// StreamContext runs the pipeline and hands result rows to sink in
// pipeline order, at most ClampStreamChunk(chunk) rows per call. This
// is the streaming counterpart of ExecuteContext: a sort-free plan's
// first chunk reaches the sink while the rest of the input is still
// being joined, whereas an order-oblivious plan's top sort must consume
// everything before the first chunk appears — the paper's payoff,
// observable at the wire.
//
// The slice passed to sink, and the rows in it, are only valid for the
// duration of the call: once sink returns, the slice is reused and the
// rows are overwritten by rows the pipeline carves later (a streamed
// join spine's output is a ring of chunk rows plus the stats wrappers'
// bursts). sink copies what it keeps. A sink error (a client that went
// away, a blocked write) aborts the pipeline via its Life, so producers
// — including exchange morsel workers — stop within one cancellation
// poll. Whatever the pipeline charged against its budget is released
// before return, success or not, exactly like ExecuteContext.
func (p *Pipeline) StreamContext(ctx context.Context, chunk int, sink func([]Row) error) error {
	chunk = ClampStreamChunk(chunk)
	defer p.Life.releaseAll()
	if err := p.Life.bind(ctx); err != nil {
		return err
	}
	err := p.streamRoot(chunk, sink)
	if err != nil {
		// Make producers (exchange workers mid-morsel) observe the
		// failure even when it originated in the sink rather than the
		// pipeline itself.
		p.Life.abort(err)
	}
	return err
}

func (p *Pipeline) streamRoot(chunk int, sink func([]Row) error) error {
	root := p.Root
	defer root.Close() // before Open, so a panic inside Open closes too
	if p.rootRing != nil {
		// The row loop below holds fewer than chunk rows whenever it asks
		// for one: it hands a full chunk to sink and forgets it first.
		p.rootRing.window = chunk + p.rootSlack
	}
	if err := root.Open(); err != nil {
		return err
	}

	buf := make([]Row, 0, chunk)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		err := sink(buf)
		buf = buf[:0]
		return err
	}
	for {
		row, ok, err := root.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		buf = append(buf, row)
		if len(buf) == chunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}
