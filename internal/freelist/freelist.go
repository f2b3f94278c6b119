// Package freelist recycles scratch objects across calls, process-wide.
//
// A List does for the executor's large scratch (sort runs, build
// tables, row chunks, response buffers) what a sync.Pool would, without
// sync.Pool's per-P slots. A sync.Pool Put lands in the running P's
// private slot, which a Get on any other P cannot see; a goroutine that
// moves between Ps — as the garbage collector's mark workers make it do
// — then misses and allocates an object as large as the one it cannot
// reach. How often that happens depends on scheduling and on how often
// the collector runs, so what a request allocates would vary from one
// run of a workload to the next. A List is one mutex-guarded LIFO stack
// that every P shares: a Get finds what any caller Put, wherever it
// runs.
//
// Like a sync.Pool, a List lets go of what sits idle. At every GC cycle
// (observed through a finalizer) the objects Put since the previous
// cycle become victims and the previous victims are dropped, so an
// object stays as long as some Get takes it again within about two
// cycles of its Put.
package freelist

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// List is a LIFO stack of idle *T. The zero value is empty and ready to
// use; a List must not be copied after first use.
type List[T any] struct {
	once    sync.Once // registers the list with the GC ticker on first Put
	mu      sync.Mutex
	items   []*T // Put since the last GC cycle; the most recent last
	victims []*T // idle through the last cycle; dropped at the next
}

// Get takes the most recently Put object, or returns new(T) if the list
// is empty. The object is the caller's until it Puts it back.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	x := pop(&l.items)
	if x == nil {
		x = pop(&l.victims)
	}
	l.mu.Unlock()
	if x == nil {
		x = new(T)
	}
	return x
}

// Put makes x available to the next Get; the caller must not use x
// afterwards.
func (l *List[T]) Put(x *T) {
	l.once.Do(func() { track(l) })
	l.mu.Lock()
	l.items = append(l.items, x)
	l.mu.Unlock()
}

// age drops the victims and makes victims of what was Put since the
// last cycle. The two stacks swap backing arrays, so aging allocates
// nothing.
func (l *List[T]) age() {
	l.mu.Lock()
	clear(l.victims)
	l.items, l.victims = l.victims[:0], l.items
	l.mu.Unlock()
}

func pop[T any](s *[]*T) *T {
	n := len(*s)
	if n == 0 {
		return nil
	}
	x := (*s)[n-1]
	(*s)[n-1] = nil
	*s = (*s)[:n-1]
	return x
}

type ager interface{ age() }

var (
	listsMu sync.Mutex
	lists   []ager // every List that has had a Put; never shrinks

	// cycles counts the GC cycles the lists have aged through.
	cycles atomic.Uint64
)

// Cycles reports how many GC cycles the lists have aged through. Two
// more, with no Put in between, leave every list empty: a measurement
// of the live heap waits for them, so that it does not count idle
// objects a later cycle drops.
func Cycles() uint64 { return cycles.Load() }

func track(l ager) {
	listsMu.Lock()
	lists = append(lists, l)
	listsMu.Unlock()
}

// ageAll ages every list. lists only grows, so the slice read under the
// lock stays a valid prefix after it is released.
func ageAll() {
	listsMu.Lock()
	ls := lists
	listsMu.Unlock()
	for _, l := range ls {
		l.age()
	}
	cycles.Add(1)
}

// sentinel is the object whose finalizer ticks the lists: it holds a
// pointer, so it is never packed into a tiny-allocator block that
// other live objects keep reachable.
type sentinel struct{ _ *byte }

func init() { arm() }

// arm allocates a fresh sentinel and drops it: the first GC cycle that
// finds it unreachable runs its finalizer, which ages the lists and
// arms the next one.
func arm() {
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		ageAll()
		arm()
	})
}
