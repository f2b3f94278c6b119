// TestServeSoak is the lifecycle endurance test: mixed plan + execute
// traffic (buffered, streaming, streaming-with-disconnect, tiny
// deadlines) over a cold on-demand registry whose datasets are being
// evicted underneath the queries, all under admission pressure. The
// pass condition is not throughput — it is that after the storm drains
// the server is exactly where it started: zero leaked operators, no
// bytes charged but the resident datasets', zero pins, zero stray
// goroutines.
//
// The default duration keeps the tier-1 run short; CI's soak target
// runs the same test for a minute:
//
//	go test ./internal/server/ -race -run TestServeSoak -args -soak=60s
package server

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orderopt/internal/exec"
	"orderopt/internal/faultinject"
	"orderopt/internal/tpcr"
)

var soakDuration = flag.Duration("soak", 1500*time.Millisecond,
	"how long TestServeSoak keeps the mixed workload running")

// soakRegistry builds a three-tier lazy registry; TestServeSoak's
// memory limit fits roughly one and a half tiers next to the running
// queries, so loads force evictions throughout the run.
func soakRegistry() (*exec.Registry, []string) {
	names := []string{"soak-a", "soak-b", "soak-c"}
	reg := exec.NewRegistry()
	for i, name := range names {
		spec := tpcr.DefaultGenSpec()
		spec.Seed = int64(i + 1)
		n := name
		reg.RegisterLazy(n, "soak tier", func() (*exec.Dataset, error) {
			return exec.NewDataset(n, "soak tier", tpcr.Schema(), tpcr.Generate(spec)), nil
		})
	}
	return reg, names
}

func TestServeSoak(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	reg, names := soakRegistry()
	probe := exec.NewDataset("probe", "sizing probe", tpcr.Schema(), tpcr.Generate(tpcr.DefaultGenSpec()))
	// ~1.5 datasets plus four queries' reservations: with a second
	// dataset resident, fewer queries fit, so loads evict and admission
	// sheds throughout the storm.
	limit := probe.MemBytes() + probe.MemBytes()/2 + 4*DefaultQueryReserveBytes
	tracker := &faultinject.Tracker{}
	s, c, done := newTestServer(t, Config{
		Datasets:      reg,
		ExecHook:      tracker.Hook(),
		MemLimitBytes: limit,
		// Low enough that the sorting query shape trips it (the join
		// result it sorts is ~200 rows: 41,344 bytes of chunks and row
		// headers, planned serially), and so does the plain join when
		// buffered (29,248 bytes of chunks for its ~200 result rows),
		// while the grouping query (11,840) and a streamed join's ring
		// fit, so budget aborts — buffered 429s and streaming trailer
		// aborts both — are part of the storm.
		QueryBudget: exec.Budget{MaxBytes: 16 << 10},
		MaxTimeout:  2 * time.Second,
	})
	defer done()

	queries := []string{
		joinSQL,
		sortSQL,
		"select count(*) from orders, lineitem where o_orderkey = l_orderkey group by o_custkey",
		"select * from orders, customer where o_custkey = c_custkey order by o_orderkey",
	}

	var (
		completed  atomic.Int64
		shedCount  atomic.Int64
		cutCount   atomic.Int64
		planned    atomic.Int64
		unexpected atomic.Int64
	)
	// A lifecycle outcome (shed, deadline, disconnect) is part of the
	// storm; anything else is a real failure.
	acceptable := func(err error) bool {
		var se *StatusError
		if errors.As(err, &se) {
			return se.Code == http.StatusTooManyRequests || se.Code == http.StatusGatewayTimeout
		}
		var abort *StreamAbort
		if errors.As(err, &abort) {
			return abort.Kind != ""
		}
		// Mid-stream cuts from our own disconnects, and context
		// deadlines on the client side.
		return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Evictor: churns the registry the whole time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
				reg.Evict(names[rng.Intn(len(names))])
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
		}
	}()

	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ds := names[rng.Intn(len(names))]
				sql := queries[rng.Intn(len(queries))]
				var err error
				switch rng.Intn(5) {
				case 0: // planning traffic rides along
					_, err = c.Plan(sql)
					if err == nil {
						planned.Add(1)
						continue
					}
				case 1: // buffered execute
					_, err = c.Execute(ExecuteRequest{SQL: sql, Dataset: ds, MaxRows: 50})
				case 2: // streaming execute, fully drained
					var st *ExecuteStream
					st, err = c.ExecuteStream(ExecuteRequest{SQL: sql, Dataset: ds, ChunkRows: 32})
					if err == nil {
						_, err = st.Collect()
						st.Close()
					}
				case 3: // streaming execute, client walks away mid-stream
					var st *ExecuteStream
					st, err = c.ExecuteStream(ExecuteRequest{SQL: sql, Dataset: ds, ChunkRows: 4})
					if err == nil {
						for i := 0; i < rng.Intn(6); i++ {
							if _, ok, e := st.Next(); !ok || e != nil {
								break
							}
						}
						st.Close()
						cutCount.Add(1)
						continue
					}
				case 4: // tiny deadline
					_, err = c.Execute(ExecuteRequest{SQL: sql, Dataset: ds, TimeoutMs: 1 + rng.Intn(5)})
				}
				switch {
				case err == nil:
					completed.Add(1)
				case acceptable(err):
					shedCount.Add(1)
				default:
					if unexpected.Add(1) <= 5 {
						t.Errorf("unexpected failure in the soak storm: %v", err)
					}
					return
				}
			}
		}(int64(g + 1))
	}

	time.Sleep(*soakDuration)
	close(stop)
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.DrainAndWait(ctx); err != nil {
		t.Fatalf("drain after the soak: %v", err)
	}
	c.httpClient().CloseIdleConnections()

	if completed.Load() == 0 {
		t.Error("soak completed zero requests; the storm never exercised the server")
	}
	t.Logf("soak: %d completed, %d shed/cut-by-lifecycle, %d client disconnects, %d plans, registry loads=%d evictions=%d highWater=%d",
		completed.Load(), shedCount.Load(), cutCount.Load(), planned.Load(),
		reg.Loads(), reg.Evictions(), reg.HighWaterBytes())

	// Leak audit: operators, charged bytes, pins, goroutines.
	if tracker.Opened() == 0 {
		t.Fatal("tracker saw no operators; the hook seam is broken")
	}
	if leaked := tracker.Leaked(); leaked != 0 {
		t.Errorf("%d operators still open after the soak drained", leaked)
	}
	if used, resident := s.acct.Used(), reg.ResidentBytes(); used != resident {
		t.Errorf("%d bytes charged after the soak drained, want the %d resident bytes", used, resident)
	}
	for _, info := range reg.Info() {
		if info.Pins != 0 {
			t.Errorf("dataset %s still holds %d pins after the soak drained", info.Name, info.Pins)
		}
	}
	if reg.ResidentBytes() > limit {
		t.Errorf("registry resident %d bytes over the %d limit after the soak", reg.ResidentBytes(), limit)
	}
	// Goroutines wind down asynchronously (keep-alive conns, morsel
	// workers observing aborts); poll with a deadline.
	deadline := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseGoroutines+10 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d at start, %d after drain\n%s",
				baseGoroutines, runtime.NumGoroutine(), truncateStack(buf[:n]))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// truncateStack bounds a full-stack dump for failure messages.
func truncateStack(b []byte) string {
	const max = 16 << 10
	if len(b) > max {
		return fmt.Sprintf("%s\n... (%d bytes truncated)", b[:max], len(b)-max)
	}
	return string(b)
}
