package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// This file is the query-lifecycle layer of the executor: cancellation,
// deadlines and resource budgets. Every compiled pipeline carries one
// Life, polled for cancellation where rows start, every
// CancelCheckInterval rows: by each scan, each spine's cursor and the
// root's chunk loop (counters private to each, so the hot path shares no
// cache line between operators or workers). The query is charged on it
// for the row memory it takes, when it takes it (see Life.hold). A query
// therefore stops for exactly three reasons: it finished, its context
// was cancelled (client disconnect or deadline), or it hit a budget —
// and all three release whatever the query held.

// ErrBudgetExceeded is the typed error every budget rejection wraps:
// the per-query byte budget, the shared memory accountant and a dataset
// load that does not fit all surface through
// errors.Is(err, ErrBudgetExceeded). The serving layer maps it to 429 —
// the query was too big for the resources it was admitted under, which
// is load shedding, not a server fault.
var ErrBudgetExceeded = errors.New("exec: query budget exceeded")

// ErrCanceled wraps the context error when a pipeline observes
// cancellation; errors.Is also matches the underlying context.Canceled
// or context.DeadlineExceeded, which is what the serving layer switches
// on (499-style client abort vs 504 deadline).
var ErrCanceled = errors.New("exec: pipeline canceled")

// CancelCheckInterval is how many rows one scan reads, one spine's
// cursor emits and the root's chunk loop takes between context checks:
// none of them goes more than CancelCheckInterval-1 rows without
// polling, so cancellation latency is bounded by that many rows of the
// busiest of them (plus whatever single operator call is in progress),
// even under a predicate that keeps no row or a join that fans one row
// out into thousands; per-row checks would put a ctx.Err() load on the
// hottest loop in the system. The counters test it as a mask, so it
// must stay a power of two.
const CancelCheckInterval = 256

// Budget bounds the row memory one query may take: the chunks its
// joins carve rows from, and the row-header arrays, build tables and
// group tables of its materializing operators.
type Budget struct {
	// MaxBytes caps the bytes the pipeline has taken and not yet given
	// back; 0 is unlimited.
	MaxBytes int64
}

// Accountant is the process's one memory gauge. Resident datasets (and
// the build tables they retain) charge it through their Registry,
// running pipelines charge the row memory they take (Life.hold), and
// the serving layer's admission reserve covers each query's first bytes
// (Pipeline.AdoptLease) — all against one limit, so overload degrades
// into typed ErrBudgetExceeded failures (or evictions of idle datasets)
// instead of unbounded RSS growth.
type Accountant struct {
	limit int64
	used  atomic.Int64
}

// NewAccountant returns an accountant enforcing limit bytes; limit <= 0
// means track usage without enforcing.
func NewAccountant(limit int64) *Accountant { return &Accountant{limit: limit} }

// Limit returns the configured byte limit (0 when tracking only).
func (a *Accountant) Limit() int64 {
	if a == nil {
		return 0
	}
	return a.limit
}

// Used returns the bytes currently reserved: resident datasets plus
// running pipelines plus admission reservations.
func (a *Accountant) Used() int64 {
	if a == nil {
		return 0
	}
	return a.used.Load()
}

// Reserve attempts to reserve n bytes, failing without reserving when
// the limit would be exceeded. A nil accountant reserves everything.
// Pair every successful Reserve with exactly one Release.
func (a *Accountant) Reserve(n int64) bool {
	if a == nil {
		return true
	}
	for {
		cur := a.used.Load()
		if a.limit > 0 && cur+n > a.limit {
			return false
		}
		if a.used.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// Release returns n bytes taken with Reserve.
func (a *Accountant) Release(n int64) {
	if a == nil || n == 0 {
		return
	}
	a.used.Add(-n)
}

// Life is one pipeline execution's lifecycle: the cancellation context,
// the per-query budget and the (optional) shared accountant. A Life is
// created at Compile and bound to a context at StreamContext. The held
// counters are atomic: a parallel pipeline's morsel workers all charge
// their budget use and poll cancellation through the one shared Life,
// so one worker tripping the budget fails the query (and cancels its
// siblings) exactly like the serial path would.
type Life struct {
	ctx context.Context

	// failed, once set, makes every subsequent cancellation poll return
	// the recorded error: an exchange worker hitting a terminal failure
	// (budget exhaustion, injected fault) aborts its sibling workers
	// through the shared Life within one poll interval, without needing
	// a context of its own.
	failed atomic.Pointer[error]

	budget    Budget
	acct      *Accountant
	heldBytes atomic.Int64
	// reserve is what the caller reserved on acct for the query before
	// it ran (Pipeline.AdoptLease); acct carries max(heldBytes, reserve)
	// for the query whenever no hold or release is under way.
	reserve int64
	arena   []*rowAlloc // the pooled row allocators, recycled by releaseAll

	// quiesced is the graceful counterpart of failed: a Limit operator
	// that has emitted its k rows sets it so background producers
	// (exchange morsel workers) stop doing work whose output can no
	// longer be consumed. Unlike abort, quiescence is not an error — the
	// consuming side of the pipeline keeps returning rows normally and
	// the query still succeeds.
	quiesced atomic.Bool
}

// quiesce asks background producers to stop at their next poll; the
// pipeline's result so far stays valid (no error is recorded).
func (l *Life) quiesce() {
	if l == nil {
		return
	}
	l.quiesced.Store(true)
}

// drained reports whether the pipeline was quiesced (the limit was
// reached and producers should wind down).
func (l *Life) drained() bool {
	return l != nil && l.quiesced.Load()
}

// abort records a terminal error; the first recorded error wins. Every
// scan and cursor polling this Life, across all workers, and the root
// loop fail within CancelCheckInterval of their rows.
func (l *Life) abort(err error) {
	if l == nil || err == nil {
		return
	}
	l.failed.CompareAndSwap(nil, &err)
}

// bind attaches the execution context. It returns the context error
// immediately when ctx is already dead, so a pipeline never opens
// under a cancelled request.
func (l *Life) bind(ctx context.Context) error {
	if l == nil {
		return nil
	}
	l.ctx = ctx
	return l.Err()
}

// Done exposes the bound context's cancellation channel (nil before
// bind or without a Life) so blocking wrappers — fault-injected hangs
// and delays — can unblock on cancellation.
func (l *Life) Done() <-chan struct{} {
	if l == nil || l.ctx == nil {
		return nil
	}
	return l.ctx.Done()
}

// Err reports the first error abort recorded, else the context's error
// wrapped in ErrCanceled, or nil.
func (l *Life) Err() error {
	if l == nil {
		return nil
	}
	if p := l.failed.Load(); p != nil {
		return *p
	}
	if l.ctx == nil {
		return nil
	}
	if err := l.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// The one charging rule: a query is charged for row memory when it
// takes it — each chunk a spine's rowAlloc takes, each doubling of a
// row-header buffer (rowBuf), a per-execution build table's arrays,
// GroupHash's table as it doubles and each exchange morsel's output —
// and everything comes back at releaseAll, except a consumed morsel,
// which the exchange releases as it goes. None of these is per row, so
// hold can afford to keep the accountant exact: a query reserves there
// what it holds beyond the reserve it adopted.

// hold charges bytes against the per-query budget and the shared
// accountant. On failure nothing is charged and the returned error
// wraps ErrBudgetExceeded. Morsel workers charge one Life concurrently:
// the accountant is reserved first and heldBytes moved by
// compare-and-swap, and a loser gives its reservation back and retries.
func (l *Life) hold(bytes int64) error {
	if l == nil {
		return nil
	}
	for {
		held := l.heldBytes.Load()
		nb := held + bytes
		if l.budget.MaxBytes > 0 && nb > l.budget.MaxBytes {
			return fmt.Errorf("%w: %d bytes taken (budget %d)",
				ErrBudgetExceeded, nb, l.budget.MaxBytes)
		}
		short := max(nb, l.reserve) - max(held, l.reserve)
		if short > 0 && !l.acct.Reserve(short) {
			return fmt.Errorf("%w: memory limit exhausted (%d of %d bytes in use, resident datasets included)",
				ErrBudgetExceeded, l.acct.Used(), l.acct.Limit())
		}
		if l.heldBytes.CompareAndSwap(held, nb) {
			return nil
		}
		l.acct.Release(short)
	}
}

// release returns bytes charged for an exchange morsel its consumer is
// done with, to the budget and to the accountant.
func (l *Life) release(bytes int64) {
	if l == nil {
		return
	}
	held := l.heldBytes.Add(-bytes)
	l.acct.Release(max(held+bytes, l.reserve) - max(held, l.reserve))
}

// releaseAll returns everything still charged, the adopted reserve and
// the arena's chunks included; pipelines call it when execution
// finishes (normally or not), when nothing charges or reads a pooled
// row.
func (l *Life) releaseAll() {
	if l == nil {
		return
	}
	l.acct.Release(max(l.heldBytes.Swap(0), l.reserve))
	l.reserve = 0
	for _, al := range l.arena {
		al.recycle()
	}
}

// HeldBytes reports the bytes currently charged by this query.
func (l *Life) HeldBytes() int64 {
	if l == nil {
		return 0
	}
	return l.heldBytes.Load()
}

// rowBufMin is the capacity a charged buffer takes first.
const rowBufMin = 8

// rowHeaderBytes is the size of one Row slice header.
const rowHeaderBytes = int64(unsafe.Sizeof(Row(nil)))

// rowBuf is a row-header buffer charged for each doubling of its
// capacity, rowBufMin first: the one helper behind every buffer of
// kept rows. It charges the capacity the buffer would have grown to
// from empty, whatever a recycled array brings, so a query's charge
// does not depend on what the pools hold; a short array is grown to
// match.
type rowBuf struct {
	rows    []Row
	charged int // the capacity charged so far
}

// append adds row, first charging l for the doubling it needs when the
// charged capacity is full; on failure nothing is added.
func (b *rowBuf) append(l *Life, row Row) error {
	if len(b.rows) == b.charged {
		if err := double(l, &b.charged, rowHeaderBytes); err != nil {
			return err
		}
		if cap(b.rows) < b.charged {
			grown := make([]Row, len(b.rows), b.charged)
			copy(grown, b.rows)
			b.rows = grown
		}
	}
	b.rows = append(b.rows, row)
	return nil
}

// double charges l for the array a full buffer of charged capacity *c,
// elem bytes an element, doubles into, and records the new capacity.
func double(l *Life, c *int, elem int64) error {
	next := max(2**c, rowBufMin)
	if err := l.hold(int64(next) * elem); err != nil {
		return err
	}
	*c = next
	return nil
}
