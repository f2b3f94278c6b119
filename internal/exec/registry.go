package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the dataset lifecycle layer: a thread-safe registry
// whose datasets are loaded on first use, pinned (refcounted) while
// queries run over them, and LRU-evicted when the memory Accountant
// they charge runs out of room. The serving layer acquires a pin per
// request, so eviction can never free storage a pipeline is still
// scanning; an evicted dataset is simply rebuilt by its loader on the
// next acquire.

// ErrUnknownDataset is wrapped by Acquire/Get failures for names that
// were never registered; the serving layer maps it to 400, and every
// other loader failure to 500.
var ErrUnknownDataset = errors.New("exec: unknown dataset")

// DatasetLoader builds a dataset on demand. Loaders run outside the
// registry lock (loads can take seconds at scale) and must return a
// fully built dataset — indexes presorted — ready for concurrent use.
type DatasetLoader func() (*Dataset, error)

// regEntry is one registered dataset's lifecycle state. All fields are
// guarded by Registry.mu except the dataset's own immutable content.
type regEntry struct {
	name string
	desc string
	load DatasetLoader

	ds      *Dataset // non-nil while resident
	bytes   int64    // MemBytes() of ds while resident
	pins    int      // acquires not yet released; blocks eviction
	lastUse int64    // registry clock at last acquire (LRU order)

	// loading is non-nil while one goroutine runs the loader; other
	// acquirers wait on it instead of loading twice.
	loading chan struct{}
}

// Registry is a named set of datasets; the first registered one is the
// default. It is safe for concurrent use: every dataset is registered
// with a loader (RegisterLazy), built on first Acquire and evictable.
// Every resident byte is charged to the registry's Accountant, the one
// the serving layer's pipelines charge too. When it has a limit,
// loading a dataset evicts least-recently-used unpinned datasets until
// the newcomer fits next to everything else charged; when what is
// resident is pinned the load fails with an error wrapping
// ErrBudgetExceeded, which the serving layer sheds as 429.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*regEntry
	names   []string
	acct    *Accountant // charged with every resident byte; nil: unlimited
	clock   int64       // LRU clock, incremented per acquire

	resident  atomic.Int64 // bytes resident now (gauge)
	highWater atomic.Int64 // max resident bytes ever observed
	loads     atomic.Int64 // loader invocations that went resident
	evictions atomic.Int64 // datasets dropped for space (incl. Evict)

	builds [3]atomic.Int64 // Dataset.buildTable outcomes, indexed by buildHit…
}

// Outcomes of one Dataset.buildTable call, counted per registry.
const (
	buildHit      = iota // the table was resident
	buildMiss            // built and retained
	buildFallback        // did not fit: the query built its own
)

// NewRegistry returns an empty registry charging no accountant.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*regEntry)}
}

// SetAccountant makes a the gauge the registry's resident bytes
// charge — the serving layer hands it the accountant its pipelines
// charge, so one limit bounds both. What is resident moves from the
// previous accountant to a; when that leaves a over its limit,
// least-recently-used unpinned datasets are evicted until it fits
// (best effort — pinned datasets stay).
func (r *Registry) SetAccountant(a *Accountant) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.resident.Load()
	r.acct.Release(n)
	r.acct = a
	if a != nil {
		a.used.Add(n)
	}
	_ = r.reserveLocked(0)
}

// RegisterLazy adds a dataset that load builds on first Acquire. The
// name joins the registry order immediately (Names lists it, and it
// can be the default) but no memory is held until a query asks for it.
// Registering over an existing name replaces it; a resident dataset
// under the old registration is dropped.
func (r *Registry) RegisterLazy(name, desc string, load DatasetLoader) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entryLocked(name)
	r.unloadLocked(e)
	e.desc = desc
	e.load = load
}

// entryLocked returns the entry for name, creating and ordering it if
// new. Caller holds r.mu.
func (r *Registry) entryLocked(name string) *regEntry {
	e, ok := r.entries[name]
	if !ok {
		e = &regEntry{name: name}
		r.entries[name] = e
		r.names = append(r.names, name)
	}
	return e
}

func (r *Registry) residentAdd(delta int64) {
	n := r.resident.Add(delta)
	for {
		hw := r.highWater.Load()
		if n <= hw || r.highWater.CompareAndSwap(hw, n) {
			return
		}
	}
}

// Acquire returns the named dataset pinned against eviction; the empty
// name selects the default (first registered). Datasets are loaded on
// first use — concurrent acquirers of a loading dataset wait for the
// one in-flight load rather than loading twice. The returned
// release function drops the pin and must be called exactly once, when
// the query is done reading the dataset. Errors wrap ErrUnknownDataset
// (no such name) or ErrBudgetExceeded (the load does not fit the
// accountant's limit next to what is pinned and what running pipelines
// hold), or are the loader's own failure — a panicking loader's
// included; the next Acquire loads again.
func (r *Registry) Acquire(name string) (*Dataset, func(), error) {
	r.mu.Lock()
	if name == "" {
		if len(r.names) == 0 {
			r.mu.Unlock()
			return nil, nil, fmt.Errorf("%w: registry is empty", ErrUnknownDataset)
		}
		name = r.names[0]
	}
	for {
		e, ok := r.entries[name]
		if !ok {
			r.mu.Unlock()
			return nil, nil, fmt.Errorf("%w %q", ErrUnknownDataset, name)
		}
		if e.ds != nil {
			e.pins++
			r.clock++
			e.lastUse = r.clock
			ds := e.ds
			r.mu.Unlock()
			return ds, r.releaseFunc(e), nil
		}
		if e.loading != nil {
			// Another goroutine is running the loader; wait for it and
			// re-examine (it may have failed, been evicted, or succeeded).
			ch := e.loading
			r.mu.Unlock()
			<-ch
			r.mu.Lock()
			continue
		}
		ch := make(chan struct{})
		e.loading = ch
		load := e.load
		r.mu.Unlock()

		ds, err := runLoader(name, load)

		r.mu.Lock()
		e.loading = nil
		if err == nil && ds == nil {
			err = fmt.Errorf("exec: loader for dataset %q returned nil", name)
		}
		if err == nil {
			bytes := ds.MemBytes()
			if ferr := r.reserveLocked(bytes); ferr != nil {
				err = ferr // drop the freshly built dataset; nothing was charged
			} else {
				e.ds, e.bytes = ds, bytes
				ds.owner.Store(r)
				r.residentAdd(bytes)
				r.loads.Add(1)
			}
		}
		close(ch)
		if err != nil {
			r.mu.Unlock()
			return nil, nil, err
		}
		// Loop back to the resident branch to take the pin.
	}
}

// runLoader runs load with a panic turned into its error, so that
// Acquire always clears the entry's in-flight load and wakes its
// waiters: a loader that panicked would otherwise leave every later
// acquirer of the name blocked on a load that never ends.
func runLoader(name string, load DatasetLoader) (ds *Dataset, err error) {
	defer func() {
		if v := recover(); v != nil {
			ds, err = nil, fmt.Errorf("exec: loader for dataset %q panicked: %v", name, v)
		}
	}()
	return load()
}

// releaseFunc returns the once-guarded pin release for e.
func (r *Registry) releaseFunc(e *regEntry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			e.pins--
			r.mu.Unlock()
		})
	}
}

// reserveLocked reserves need bytes on the accountant, evicting
// least-recently-used unpinned datasets until the reservation fits. It
// fails with a budget error, having reserved nothing, when what remains
// resident is pinned — before evicting anything when even evicting
// every unpinned dataset would leave too little room, so a load or a
// build table that can never fit costs no resident dataset. Without a
// limit it never evicts. Caller holds r.mu.
func (r *Registry) reserveLocked(need int64) error {
	if limit := r.acct.Limit(); limit > 0 {
		room := limit - r.acct.Used()
		for _, e := range r.entries {
			if e.ds != nil && e.pins == 0 {
				room += e.bytes
			}
		}
		if room < need {
			return r.overBudgetLocked(need)
		}
	}
	for !r.acct.Reserve(need) {
		var victim *regEntry
		for _, e := range r.entries {
			if e.ds == nil || e.pins > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return r.overBudgetLocked(need)
		}
		r.evictLocked(victim)
	}
	return nil
}

func (r *Registry) overBudgetLocked(need int64) error {
	return fmt.Errorf("%w: %d bytes needed, %d of %d in use (%d resident and pinned)",
		ErrBudgetExceeded, need, r.acct.Used(), r.acct.Limit(), r.resident.Load())
}

// unloadLocked drops e's resident dataset, if any, and its charge.
// Caller holds r.mu.
func (r *Registry) unloadLocked(e *regEntry) {
	if e.ds == nil {
		return
	}
	r.residentAdd(-e.bytes)
	r.acct.Release(e.bytes)
	e.ds, e.bytes = nil, 0
}

// evictLocked drops victim's resident dataset. Caller holds r.mu.
func (r *Registry) evictLocked(victim *regEntry) {
	r.unloadLocked(victim)
	r.evictions.Add(1)
}

// admitDerived charges n more bytes to d's resident entry — state d
// derived from its own rows, freed and uncharged with it — evicting
// least-recently-used unpinned datasets for room as a load would
// (reserveLocked). It reports false, with nothing charged, when d is not
// this registry's resident copy of its name or the bytes do not fit next
// to what is pinned. A nil registry admits everything: nobody budgets a
// dataset no registry holds.
func (r *Registry) admitDerived(d *Dataset, n int64) bool {
	if r == nil {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[d.Name]
	if e == nil || e.ds != d {
		return false
	}
	// d itself is no victim, pinned by the caller or not.
	e.pins++
	err := r.reserveLocked(n)
	e.pins--
	if err != nil {
		return false
	}
	e.bytes += n
	r.residentAdd(n)
	return true
}

func (r *Registry) countBuild(outcome int) {
	if r != nil {
		r.builds[outcome].Add(1)
	}
}

// Evict drops the named dataset's resident copy if it is loaded and
// unpinned, reporting whether anything was evicted.
// In-flight queries that acquired the dataset before the call keep
// their (still valid) reference; the next Acquire reloads.
func (r *Registry) Evict(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok || e.ds == nil || e.pins > 0 {
		return false
	}
	r.evictLocked(e)
	return true
}

// Get returns the named dataset (loading it if absent); the
// empty name selects the default (first registered). It takes no pin —
// callers that execute against the dataset while eviction may run
// concurrently should use Acquire. Load failures report as not-found.
func (r *Registry) Get(name string) (*Dataset, bool) {
	ds, release, err := r.Acquire(name)
	if err != nil {
		return nil, false
	}
	release()
	return ds, true
}

// Names lists the registered dataset names in registration order,
// resident or not.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.names...)
}

// DatasetInfo describes one registry entry for stats endpoints.
type DatasetInfo struct {
	Name     string `json:"name"`
	Desc     string `json:"desc,omitempty"`
	Resident bool   `json:"resident"`
	Bytes    int64  `json:"bytes,omitempty"`
	Rows     int64  `json:"rows,omitempty"`
	Pins     int    `json:"pins,omitempty"`
	// DerivedBytes is the part of Bytes held by the BuildTables hash-join
	// build tables the dataset has derived from its rows so far.
	DerivedBytes int64 `json:"derivedBytes,omitempty"`
	BuildTables  int64 `json:"buildTables,omitempty"`
}

// Info snapshots every entry in registration order.
func (r *Registry) Info() []DatasetInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DatasetInfo, 0, len(r.names))
	for _, name := range r.names {
		e := r.entries[name]
		info := DatasetInfo{
			Name:     name,
			Desc:     e.desc,
			Resident: e.ds != nil,
			Bytes:    e.bytes,
			Pins:     e.pins,
		}
		if e.ds != nil {
			info.Rows = e.ds.TotalRows()
			info.DerivedBytes = e.ds.derived.Load()
			info.BuildTables = e.ds.tables.Load()
		}
		out = append(out, info)
	}
	return out
}

// ResidentBytes reports the bytes currently resident across loaded
// datasets: the part of the accountant's Used that datasets hold.
func (r *Registry) ResidentBytes() int64 { return r.resident.Load() }

// HighWaterBytes reports the maximum resident bytes ever observed.
func (r *Registry) HighWaterBytes() int64 { return r.highWater.Load() }

// Loads reports how many loader runs went resident.
func (r *Registry) Loads() int64 { return r.loads.Load() }

// Evictions reports how many resident datasets were dropped.
func (r *Registry) Evictions() int64 { return r.evictions.Load() }

// BuildCounts reports how hash joins over bare base-relation scans got
// their build table: resident already (hits), built and retained
// (misses), or not fitting the memory limit and built per query
// (fallbacks).
func (r *Registry) BuildCounts() (hits, misses, fallbacks int64) {
	return r.builds[buildHit].Load(), r.builds[buildMiss].Load(), r.builds[buildFallback].Load()
}
