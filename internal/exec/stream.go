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

// chunkBufs holds StreamContext's chunk buffers of DefaultStreamChunk
// rows, cleared. A larger one is left to the collector: a pooled buffer
// lives on for a GC cycle or two, and MaxStreamChunk rows are 192 KiB.
var chunkBufs freelist.List[[]Row]

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
func (p *Pipeline) StreamContext(ctx context.Context, chunk int, sink func([]Row) error) (err error) {
	chunk = ClampStreamChunk(chunk)
	defer p.Life.releaseAll()
	if err := p.Life.bind(ctx); err != nil {
		return err
	}
	// Producers (exchange workers mid-morsel) observe a failure this way
	// even when it originated in the sink rather than the pipeline.
	defer func() { p.Life.abort(err) }()
	root := p.Root
	defer root.Close() // before Open, so a panic inside Open closes too
	// The buffer is taken before Open, as the operators take theirs, so
	// a long Open does not age it out of the list.
	bp := chunkBufs.Get()
	if cap(*bp) < chunk {
		*bp = make([]Row, 0, max(chunk, DefaultStreamChunk))
	}
	buf := (*bp)[:0]
	defer func() {
		clear(buf[:chunk])
		if cap(buf) == DefaultStreamChunk {
			chunkBufs.Put(bp)
		}
	}()
	if p.rootRing != nil {
		// The row loop below holds fewer than chunk rows whenever it asks
		// for one: it hands a full chunk to sink and forgets it first.
		p.rootRing.window = chunk + p.rootSlack
	}
	if err := root.Open(); err != nil {
		return err
	}
	for n := 0; ; n++ {
		if n&(CancelCheckInterval-1) == 0 {
			if err := p.Life.Err(); err != nil {
				return err
			}
		}
		row, ok, err := root.Next()
		if err != nil {
			return err
		}
		if ok {
			buf = append(buf, row)
		}
		if len(buf) == chunk || !ok && len(buf) > 0 {
			if err := sink(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		if !ok {
			return nil
		}
	}
}
