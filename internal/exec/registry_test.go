package exec

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tinyDataset builds a dataset of a known, nonzero size: one table,
// two columns, rows rows.
func tinyDataset(name string, rows int) *Dataset {
	raw := make([][]int64, rows)
	for i := range raw {
		raw[i] = []int64{int64(i), int64(i * 2)}
	}
	return NewDataset(name, "registry test fixture", nil, map[string][][]int64{"t": raw})
}

// limit binds r to a fresh accountant of n bytes, as a server with
// that memory limit would, and returns it.
func limit(r *Registry, n int64) *Accountant {
	a := NewAccountant(n)
	r.SetAccountant(a)
	return a
}

// loaded registers d under its name with a loader returning it, and
// loads it.
func loaded(t *testing.T, r *Registry, d *Dataset) {
	t.Helper()
	r.RegisterLazy(d.Name, d.Desc, func() (*Dataset, error) { return d, nil })
	if _, ok := r.Get(d.Name); !ok {
		t.Fatalf("loading %s failed", d.Name)
	}
}

// countingLoader wraps a dataset build with an invocation counter.
func countingLoader(name string, rows int, calls *atomic.Int64) DatasetLoader {
	return func() (*Dataset, error) {
		calls.Add(1)
		return tinyDataset(name, rows), nil
	}
}

// TestRegistryLazyLoad: a lazy dataset is listed before loading, holds
// no memory until acquired, loads exactly once across repeated
// acquires, and the gauges track residency.
func TestRegistryLazyLoad(t *testing.T) {
	var calls atomic.Int64
	r := NewRegistry()
	r.RegisterLazy("a", "first", countingLoader("a", 16, &calls))

	if got := r.Names(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Names() = %v before load, want [a]", got)
	}
	if got := r.ResidentBytes(); got != 0 {
		t.Fatalf("resident %d bytes before any acquire, want 0", got)
	}
	info := r.Info()
	if len(info) != 1 || info[0].Resident {
		t.Fatalf("pre-load info = %+v, want a non-resident entry", info)
	}

	ds, release, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "a" {
		t.Fatalf("acquired dataset %q, want a", ds.Name)
	}
	if got := r.ResidentBytes(); got != ds.MemBytes() {
		t.Errorf("resident %d bytes, want MemBytes %d", got, ds.MemBytes())
	}
	release()
	release() // second release must be a no-op, not a double-unpin

	if _, release2, err := r.Acquire("a"); err != nil {
		t.Fatal(err)
	} else {
		release2()
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("loader ran %d times across two acquires, want 1", got)
	}
	if got := r.Loads(); got != 1 {
		t.Errorf("Loads() = %d, want 1", got)
	}

	// The empty name selects the default (first registered).
	if ds, rel, err := r.Acquire(""); err != nil || ds.Name != "a" {
		t.Errorf("Acquire(\"\") = %v, %v, want the default dataset", ds, err)
	} else {
		rel()
	}
}

// TestRegistryUnknown: unknown names and empty registries report
// ErrUnknownDataset, and Get mirrors that as not-found.
func TestRegistryUnknown(t *testing.T) {
	r := NewRegistry()
	if _, _, err := r.Acquire(""); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("empty registry Acquire: %v, want ErrUnknownDataset", err)
	}
	r.RegisterLazy("a", "", countingLoader("a", 4, new(atomic.Int64)))
	if _, _, err := r.Acquire("nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("unknown name Acquire: %v, want ErrUnknownDataset", err)
	}
	if _, ok := r.Get("nope"); ok {
		t.Error("Get of an unknown name reported found")
	}
}

// TestRegistryLRUEviction: with a budget fit for two of three equal
// datasets, loading the third evicts the least recently used one, and
// re-acquiring an evicted dataset reloads it.
func TestRegistryLRUEviction(t *testing.T) {
	var loadsA, loadsB, loadsC atomic.Int64
	r := NewRegistry()
	r.RegisterLazy("a", "", countingLoader("a", 32, &loadsA))
	r.RegisterLazy("b", "", countingLoader("b", 32, &loadsB))
	r.RegisterLazy("c", "", countingLoader("c", 32, &loadsC))

	one := tinyDataset("a", 32).MemBytes()
	acct := limit(r, 2*one)

	acquire := func(name string) {
		t.Helper()
		_, release, err := r.Acquire(name)
		if err != nil {
			t.Fatalf("acquire %s: %v", name, err)
		}
		release()
	}
	resident := func() map[string]bool {
		out := map[string]bool{}
		for _, info := range r.Info() {
			out[info.Name] = info.Resident
		}
		return out
	}

	acquire("a")
	acquire("b")
	if got := resident(); !got["a"] || !got["b"] {
		t.Fatalf("residency after loading a,b: %v", got)
	}

	// Touch a so b becomes the LRU victim, then load c.
	acquire("a")
	acquire("c")
	got := resident()
	if got["b"] {
		t.Errorf("b still resident after c displaced it: %v", got)
	}
	if !got["a"] || !got["c"] {
		t.Errorf("residency after eviction: %v, want a and c", got)
	}
	if r.Evictions() != 1 {
		t.Errorf("Evictions() = %d, want 1", r.Evictions())
	}
	if r.ResidentBytes() > 2*one || acct.Used() != r.ResidentBytes() {
		t.Errorf("resident %d bytes, accountant %d, budget %d", r.ResidentBytes(), acct.Used(), 2*one)
	}

	// Re-acquiring b reloads it (and evicts the new LRU, a).
	acquire("b")
	if loadsB.Load() != 2 {
		t.Errorf("b loaded %d times, want 2 (evicted and reloaded)", loadsB.Load())
	}
	if got := resident(); got["a"] {
		t.Errorf("a survived the reload of b under a two-dataset budget: %v", got)
	}

	// High water never exceeded the budget: the registry evicts before
	// charging, not after.
	if hw := r.HighWaterBytes(); hw > 2*one {
		t.Errorf("high water %d bytes over budget %d", hw, 2*one)
	}
}

// TestRegistryPinBlocksEviction: a pinned dataset cannot be evicted —
// a load that needs its space fails with a budget error — and the
// space frees the moment the pin is released.
func TestRegistryPinBlocksEviction(t *testing.T) {
	var calls atomic.Int64
	r := NewRegistry()
	r.RegisterLazy("a", "", countingLoader("a", 32, &calls))
	r.RegisterLazy("b", "", countingLoader("b", 32, &calls))
	limit(r, tinyDataset("a", 32).MemBytes()) // room for exactly one

	dsA, releaseA, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if r.Evict("a") {
		t.Error("Evict succeeded on a pinned dataset")
	}
	if _, _, err := r.Acquire("b"); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("loading b over a pinned registry: %v, want ErrBudgetExceeded", err)
	}
	// The pinned dataset stayed intact through the failed load.
	if len(dsA.Tables["t"]) == 0 {
		t.Fatal("pinned dataset lost its storage")
	}

	releaseA()
	if _, releaseB, err := r.Acquire("b"); err != nil {
		t.Fatalf("loading b after the pin released: %v", err)
	} else {
		releaseB()
	}
}

// TestRegistryLoadTooBig: a dataset larger than the whole budget can
// never fit; the loader's work is dropped and the error is a budget
// error, not a panic or a partial charge.
func TestRegistryLoadTooBig(t *testing.T) {
	var calls atomic.Int64
	r := NewRegistry()
	r.RegisterLazy("big", "", countingLoader("big", 64, &calls))
	acct := limit(r, tinyDataset("big", 64).MemBytes()/2)

	if _, _, err := r.Acquire("big"); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("oversized load: %v, want ErrBudgetExceeded", err)
	}
	if got := r.ResidentBytes(); got != 0 || acct.Used() != 0 {
		t.Errorf("resident %d bytes, accountant %d after a failed load, want 0", got, acct.Used())
	}
	// The failure is not sticky: lifting the limit lets the next
	// acquire succeed.
	limit(r, 0)
	if _, release, err := r.Acquire("big"); err != nil {
		t.Fatalf("acquire after raising the budget: %v", err)
	} else {
		release()
	}
}

// TestRegistryLoadTooBigEvictsNothing: a load that could not fit even
// with every idle dataset evicted is refused before any is: the idle
// dataset stays resident.
func TestRegistryLoadTooBigEvictsNothing(t *testing.T) {
	r := NewRegistry()
	a := tinyDataset("a", 32)
	limit(r, a.MemBytes())
	loaded(t, r, a)
	r.RegisterLazy("big", "", countingLoader("big", 4096, new(atomic.Int64)))

	if _, _, err := r.Acquire("big"); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("oversized load: %v, want ErrBudgetExceeded", err)
	}
	if n := r.Evictions(); n != 0 {
		t.Errorf("the refused load evicted %d datasets, want none", n)
	}
	if got, ok := r.Get("a"); !ok || got != a || r.Loads() != 1 {
		t.Errorf("a is no longer the resident copy (ok %v, %d loads)", ok, r.Loads())
	}
}

// TestRegistryLoaderError: loader failures propagate to every waiting
// acquirer and leave the entry loadable again.
func TestRegistryLoaderError(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("generator exploded")
	r := NewRegistry()
	r.RegisterLazy("flaky", "", func() (*Dataset, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return tinyDataset("flaky", 8), nil
	})

	if _, _, err := r.Acquire("flaky"); !errors.Is(err, boom) {
		t.Fatalf("first acquire: %v, want the loader's error", err)
	}
	if _, release, err := r.Acquire("flaky"); err != nil {
		t.Fatalf("second acquire after a failed load: %v", err)
	} else {
		release()
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("loader ran %d times, want 2", got)
	}
}

// TestRegistryLoaderPanic: a loader that panics fails its Acquire with
// an error naming the panic, and does not wedge the name: the next
// Acquire runs the loader again instead of waiting forever on the load
// that died.
func TestRegistryLoaderPanic(t *testing.T) {
	var calls atomic.Int64
	r := NewRegistry()
	r.RegisterLazy("flaky", "", func() (*Dataset, error) {
		if calls.Add(1) == 1 {
			panic("generator bug")
		}
		return tinyDataset("flaky", 8), nil
	})
	// acquire reports a panic out of Acquire, or a wait past 2 s, as a
	// test failure of its own.
	acquire := func() error {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if v := recover(); v != nil {
					t.Errorf("Acquire panicked: %v", v)
					done <- nil
				}
			}()
			_, release, err := r.Acquire("flaky")
			if err == nil {
				release()
			}
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(2 * time.Second):
			t.Fatal("Acquire still blocked after 2s")
			return nil
		}
	}
	if err := acquire(); err == nil || !strings.Contains(err.Error(), "generator bug") {
		t.Errorf("first acquire: %v, want an error naming the loader's panic", err)
	}
	if err := acquire(); err != nil {
		t.Errorf("second acquire: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("loader ran %d times, want 2", got)
	}
}

// TestRegistrySingleLoad: concurrent acquirers of a cold dataset share
// one loader run — the others wait on the in-flight load instead of
// building duplicate copies.
func TestRegistrySingleLoad(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	r := NewRegistry()
	r.RegisterLazy("slow", "", func() (*Dataset, error) {
		calls.Add(1)
		<-gate // hold every waiter on this one load
		return tinyDataset("slow", 8), nil
	})

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, release, err := r.Acquire("slow")
			if err != nil {
				errs <- err
				return
			}
			release()
		}()
	}
	// Give the goroutines time to stack up behind the load, then open
	// the gate.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent acquire: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("loader ran %d times for %d concurrent acquirers, want 1", got, n)
	}
}

// TestRegistryConcurrentAcquireEvict hammers acquire/release against
// Evict and SetAccountant under -race: the invariant is that a pinned
// dataset's storage is never freed — every acquirer can read its table
// through the full pin window — and that pins drain to zero.
func TestRegistryConcurrentAcquireEvict(t *testing.T) {
	names := []string{"a", "b", "c"}
	r := NewRegistry()
	for _, name := range names {
		var c atomic.Int64
		r.RegisterLazy(name, "", countingLoader(name, 16, &c))
	}
	limit(r, 2*tinyDataset("a", 16).MemBytes())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := names[g%len(names)]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ds, release, err := r.Acquire(name)
				if err != nil {
					if errors.Is(err, ErrBudgetExceeded) {
						continue // two pinned + one loading can exceed 2×budget
					}
					t.Errorf("acquire %s: %v", name, err)
					return
				}
				// Read through the pin: a use-after-evict here is a
				// -race report or a nil dereference.
				rows := ds.Tables["t"]
				if len(rows) != 16 || rows[15][0] != 15 {
					t.Errorf("acquire %s: dataset storage corrupted under concurrent eviction", name)
					release()
					return
				}
				release()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Evict(names[i%len(names)])
			if i%7 == 0 {
				limit(r, 2*tinyDataset("a", 16).MemBytes())
			}
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// All pins drained: every resident dataset is evictable now.
	for _, info := range r.Info() {
		if info.Pins != 0 {
			t.Errorf("dataset %s still holds %d pins after all goroutines released", info.Name, info.Pins)
		}
		if info.Resident && !r.Evict(info.Name) {
			t.Errorf("dataset %s resident but unevictable with zero pins", info.Name)
		}
	}
	if got := r.ResidentBytes(); got != 0 {
		t.Errorf("resident %d bytes after evicting everything, want 0", got)
	}
}

// TestRegistryReplaceRegistration: re-registering a name replaces the
// entry and releases the old registration's residency.
func TestRegistryReplaceRegistration(t *testing.T) {
	r := NewRegistry()
	loaded(t, r, tinyDataset("a", 16))
	if r.ResidentBytes() == 0 {
		t.Fatal("a loaded dataset holds no bytes")
	}
	var calls atomic.Int64
	r.RegisterLazy("a", "replaced", countingLoader("a", 8, &calls))
	if got := r.ResidentBytes(); got != 0 {
		t.Errorf("resident %d bytes after replacing the loaded entry, want 0", got)
	}
	ds, release, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if len(ds.Tables["t"]) != 8 {
		t.Errorf("acquired the stale dataset: %d rows, want 8", len(ds.Tables["t"]))
	}
	if got := r.Names(); len(got) != 1 {
		t.Errorf("Names() = %v after replacement, want one entry", got)
	}
}

// TestRegistrySetAccountantEvicts: binding the registry to an
// accountant whose limit is below the resident set evicts immediately
// rather than waiting for the next load, and moves the charge: the old
// accountant is left with nothing, the new one with what stayed.
func TestRegistrySetAccountantEvicts(t *testing.T) {
	var a, b atomic.Int64
	r := NewRegistry()
	r.RegisterLazy("a", "", countingLoader("a", 32, &a))
	r.RegisterLazy("b", "", countingLoader("b", 32, &b))
	old := limit(r, 0)
	for _, name := range []string{"a", "b"} {
		_, release, err := r.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	one := tinyDataset("a", 32).MemBytes()
	if old.Used() != 2*one {
		t.Fatalf("accountant carries %d bytes for two resident datasets of %d", old.Used(), one)
	}
	acct := limit(r, one)
	if got := r.ResidentBytes(); got > one || acct.Used() != got || old.Used() != 0 {
		t.Errorf("resident %d bytes under a %d-byte limit; new accountant %d, old %d", got, one, acct.Used(), old.Used())
	}
	if r.Evictions() == 0 {
		t.Error("a limit below residency evicted nothing")
	}
}

// TestRegistryInfoRows: Info reports row counts for resident datasets
// so /stats can show them.
func TestRegistryInfoRows(t *testing.T) {
	r := NewRegistry()
	loaded(t, r, tinyDataset("a", 5))
	info := r.Info()
	if len(info) != 1 {
		t.Fatalf("%d info entries, want 1", len(info))
	}
	if info[0].Rows != 5 || !info[0].Resident {
		t.Errorf("info = %+v, want 5 resident rows", info[0])
	}
	if info[0].Bytes != tinyDataset("a", 5).MemBytes() {
		t.Errorf("info bytes = %d, want MemBytes", info[0].Bytes)
	}
}

// tinyViewBytes is the exact size of the build table over tinyDataset's
// table keyed on column 0 (keys 0..rows-1: one bucket boundary per key
// and one more, one row header per row).
func tinyViewBytes(rows int) int64 { return 4*int64(rows+1) + 24*int64(rows) }

// TestRegistryBuildTableSingleFlight: sixteen queries first-touching
// one build table build it once; all of them probe the same table, and
// the registry carries its bytes next to the dataset's own.
func TestRegistryBuildTableSingleFlight(t *testing.T) {
	const rows = 4096
	r := NewRegistry()
	r.RegisterLazy("a", "", countingLoader("a", rows, new(atomic.Int64)))
	ds, release, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	base := r.ResidentBytes()

	views := make([]*hashView, 16)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			views[g] = ds.buildTable(buildKey{table: "t"}, ds.Tables["t"])
		}()
	}
	close(start)
	wg.Wait()
	for g, hv := range views {
		if hv == nil || hv != views[0] {
			t.Fatalf("goroutine %d got table %p, goroutine 0 got %p", g, hv, views[0])
		}
	}
	if hits, misses, fallbacks := r.BuildCounts(); hits != 15 || misses != 1 || fallbacks != 0 {
		t.Errorf("build counts: %d hits, %d misses, %d fallbacks; want 15, 1, 0", hits, misses, fallbacks)
	}
	want := base + tinyViewBytes(rows)
	if got := r.ResidentBytes(); got != want || ds.MemBytes() != want {
		t.Errorf("resident %d, MemBytes %d; want base %d + view %d", got, ds.MemBytes(), base, tinyViewBytes(rows))
	}
	if info := r.Info()[0]; info.Bytes != want || info.DerivedBytes != tinyViewBytes(rows) || info.BuildTables != 1 {
		t.Errorf("info = %+v, want %d bytes of which %d derived in 1 table", info, want, tinyViewBytes(rows))
	}
}

// TestRegistryBuildTableBudget: a build table is charged to the same
// budget as the datasets. It evicts an idle neighbour to fit, as a load
// would; it never evicts a pinned one, and a table that cannot fit is
// not retained and not an error — nothing is evicted on its behalf, the
// caller builds its own. Evicting the dataset uncharges its tables with
// it, and the reloaded copy starts with none.
func TestRegistryBuildTableBudget(t *testing.T) {
	const rows = 256
	var calls atomic.Int64
	r := NewRegistry()
	r.RegisterLazy("a", "", countingLoader("a", rows, &calls))
	r.RegisterLazy("b", "", countingLoader("b", rows, &calls))
	base := tinyDataset("a", rows).MemBytes()
	acct := limit(r, 2*base+tinyViewBytes(rows)/2)

	a, releaseA, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	_, releaseB, err := r.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	touch := func(d *Dataset) *hashView { return d.buildTable(buildKey{table: "t"}, d.Tables["t"]) }

	// b is pinned: the table does not fit, and b stays.
	if hv := touch(a); hv != nil {
		t.Fatal("build table retained over the budget")
	}
	if _, _, fallbacks := r.BuildCounts(); fallbacks != 1 || r.Evictions() != 0 || r.ResidentBytes() != 2*base || a.MemBytes() != base {
		t.Fatalf("after a refused table: %d fallbacks, %d evictions, %d resident, a is %d bytes; want 1, 0, %d, %d",
			fallbacks, r.Evictions(), r.ResidentBytes(), a.MemBytes(), 2*base, base)
	}

	// b idle: it is evicted for the table.
	releaseB()
	hv := touch(a)
	if hv == nil {
		t.Fatal("build table refused although evicting the idle neighbour makes room")
	}
	if r.Evictions() != 1 || r.ResidentBytes() != base+tinyViewBytes(rows) || acct.Used() != r.ResidentBytes() {
		t.Fatalf("after an admitted table: %d evictions, %d resident, accountant %d of %d", r.Evictions(), r.ResidentBytes(), acct.Used(), acct.Limit())
	}
	if touch(a) != hv {
		t.Error("second touch built a second table")
	}

	// Evicted with its dataset, rebuilt on the reloaded copy.
	releaseA()
	if !r.Evict("a") || r.ResidentBytes() != 0 || acct.Used() != 0 {
		t.Fatalf("after evicting a: %d bytes resident, accountant %d, want 0", r.ResidentBytes(), acct.Used())
	}
	if touch(a) != hv || r.ResidentBytes() != 0 {
		t.Error("the evicted copy must keep serving its table and charge nobody")
	}
	a2, releaseA2, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	defer releaseA2()
	if a2 == a || a2.MemBytes() != base {
		t.Fatalf("reloaded copy: same object %v, %d bytes; want a fresh one of %d", a2 == a, a2.MemBytes(), base)
	}
	if hv2 := touch(a2); hv2 == nil || hv2 == hv {
		t.Error("reloaded copy did not build its own table")
	}
	if _, misses, _ := r.BuildCounts(); misses != 2 {
		t.Errorf("%d build misses, want 2 (one per resident copy)", misses)
	}
}
