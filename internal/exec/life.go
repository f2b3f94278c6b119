package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// This file is the query-lifecycle layer of the executor: cancellation,
// deadlines and resource budgets. Every compiled pipeline carries one
// Life; each per-operator stats wrapper polls it for cancellation once
// per CancelCheckInterval of its own Next calls (a counter private to
// the wrapper, so the hot path shares no cache line between operators
// or workers), and the materializing operators charge every row they
// hold against it. A query therefore stops for exactly three reasons: it
// finished, its context was cancelled (client disconnect or deadline),
// or it hit a budget — and all three release whatever the query held.

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

// CancelCheckInterval is how many Next calls one stats wrapper serves
// between context checks: no wrapper hands out more than
// CancelCheckInterval-1 rows without polling, so cancellation latency is
// bounded by that many rows of the busiest operator (plus whatever
// single operator call is in progress); per-row checks would put a
// ctx.Err() load on the hottest loop in the system. It is the wrap
// point of statsIter's uint8 call counter and cannot change without it.
const CancelCheckInterval = 256

// rowOverheadBytes approximates the per-row allocation overhead
// (slice header + allocator rounding) charged on top of the 8 bytes
// per column when a row is materialized.
const rowOverheadBytes = 48

// rowBytes is the accounting size of a materialized row.
func rowBytes(r Row) int64 { return int64(len(r))*8 + rowOverheadBytes }

// Budget bounds what one query may materialize: build-side hash
// tables, sort inputs, merge-join duplicate groups, nested-loop
// inners and per-group accumulators all count.
type Budget struct {
	// MaxBytes caps the approximate bytes held in memory at once across
	// the pipeline's materializing operators; 0 is unlimited.
	MaxBytes int64
}

// Accountant is the process's one memory gauge. Resident datasets (and
// the build tables they retain) charge it through their Registry,
// running pipelines charge the rows they materialize (in leases, see
// Life.hold), and the serving layer's admission reserve is each query's
// first lease (Pipeline.AdoptLease) — all against
// one limit, so overload degrades into typed ErrBudgetExceeded failures
// (or evictions of idle datasets) instead of unbounded RSS growth.
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
// created at Compile and bound to a context at ExecuteContext. The held
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
	// lease is what the query has reserved on acct, a step at a time
	// (see extend): it covers heldBytes whenever a hold has succeeded.
	lease atomic.Int64
	arena []*rowAlloc // the pooled row allocators, recycled by releaseAll

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
// wrapper polling this Life (all of them, across all workers) starts
// failing its Next within CancelCheckInterval of its own calls.
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
	return l.ctxErr()
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

// Err reports the cancellation error, wrapped in ErrCanceled, or nil.
func (l *Life) Err() error { return l.ctxErr() }

func (l *Life) ctxErr() error {
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

// A query's charges reach the shared Accountant in leases, not per row:
// hold checks the exact per-query budget against heldBytes and touches
// the accountant only when heldBytes passes what the query has already
// reserved there. Each new lease is the size of the lease so far —
// doubling it — between leaseMinBytes and leaseMaxBytes; when that step
// does not fit, the exact shortfall is reserved instead, so a query
// that fits the limit byte for byte still runs. release lowers only
// heldBytes, and releaseAll returns the whole lease. A running query
// therefore reserves at most its high-water mark of held bytes plus one
// step, never more than leaseMaxBytes over it.
const (
	leaseMinBytes = 64 << 10
	leaseMaxBytes = 4 << 20
)

// hold charges bytes of materialized data against the per-query
// budget and, through the query's lease, the shared accountant. On
// failure nothing remains charged and the returned error wraps
// ErrBudgetExceeded. The charge is optimistic (add, check, roll back)
// so concurrent morsel workers can charge one shared budget without a
// lock; inside the lease that is the whole cost.
func (l *Life) hold(bytes int64) error {
	if l == nil {
		return nil
	}
	nb := l.heldBytes.Add(bytes)
	if l.budget.MaxBytes > 0 && nb > l.budget.MaxBytes {
		l.heldBytes.Add(-bytes)
		return fmt.Errorf("%w: %d bytes materialized (budget %d)",
			ErrBudgetExceeded, nb, l.budget.MaxBytes)
	}
	if nb <= l.lease.Load() || l.acct == nil {
		return nil
	}
	if err := l.extend(); err != nil {
		l.heldBytes.Add(-bytes)
		return err
	}
	return nil
}

// extend grows the lease to cover heldBytes: by one step, or by the
// exact shortfall when the step does not fit next to everything else
// the accountant carries. Concurrent extends (morsel workers) race on
// the lease: the loser returns its reservation and looks again, and
// finds the shortfall covered or smaller.
func (l *Life) extend() error {
	for {
		lease := l.lease.Load()
		short := l.heldBytes.Load() - lease
		if short <= 0 {
			return nil
		}
		step := max(min(max(lease, leaseMinBytes), leaseMaxBytes), short)
		if !l.acct.Reserve(step) {
			if step == short || !l.acct.Reserve(short) {
				return fmt.Errorf("%w: memory limit exhausted (%d of %d bytes in use, resident datasets included)",
					ErrBudgetExceeded, l.acct.Used(), l.acct.Limit())
			}
			step = short
		}
		if l.lease.CompareAndSwap(lease, lease+step) {
			return nil
		}
		l.acct.Release(step)
	}
}

// holdRow charges one materialized row.
func (l *Life) holdRow(r Row) error {
	if l == nil {
		return nil
	}
	return l.hold(rowBytes(r))
}

// release returns bytes a materializing operator let go of before the
// pipeline ended (a merge join discarding the previous duplicate
// group). The lease stays: the next hold reuses it.
func (l *Life) release(bytes int64) {
	if l == nil {
		return
	}
	l.heldBytes.Add(-bytes)
}

// releaseAll returns everything still charged, the whole lease and the
// arena's chunks included; pipelines call it when execution finishes
// (normally or not), when nothing charges or reads a pooled row.
func (l *Life) releaseAll() {
	if l == nil {
		return
	}
	l.heldBytes.Store(0)
	l.acct.Release(l.lease.Swap(0))
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
