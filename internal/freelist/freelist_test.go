package freelist

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestGetPutLIFO(t *testing.T) {
	var l List[int]
	a, b := l.Get(), l.Get()
	if a == b {
		t.Fatal("an empty list handed out one object twice")
	}
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Error("Get did not take the most recent Put")
	}
	if got := l.Get(); got != a {
		t.Error("Get did not take the older object second")
	}
}

// An object survives one cycle idle and goes at the second; one taken
// back in between starts over.
func TestAgeDropsAfterTwoIdleCycles(t *testing.T) {
	var l List[int]
	kept, dropped := new(int), new(int)
	l.Put(dropped)
	l.Put(kept)
	l.age()
	if got := l.Get(); got != kept {
		t.Fatal("an object idle for one cycle was dropped")
	}
	l.Put(kept)
	l.age()
	if got := l.Get(); got != kept {
		t.Fatal("an object taken back within the cycle was dropped")
	}
	if got := l.Get(); got == dropped {
		t.Fatal("an object idle for two cycles was kept")
	}
	if len(l.items) != 0 || len(l.victims) != 0 {
		t.Errorf("%d items, %d victims left", len(l.items), len(l.victims))
	}
}

// The finalizer ages the lists as the collector runs, and every list
// that has had a Put ages with it.
func TestCollectorAgesLists(t *testing.T) {
	var l List[int]
	x := new(int)
	l.Put(x)
	start := Cycles()
	deadline := time.Now().Add(10 * time.Second)
	for Cycles() < start+2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d cycles aged in 10 s of forced collections", Cycles()-start)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := l.Get(); got == x {
		t.Error("an object idle through two collections was kept")
	}
}

// Concurrent Gets and Puts never hand one object to two holders (the
// race detector checks the list itself).
func TestConcurrentUse(t *testing.T) {
	var l List[[8]int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				x := l.Get()
				for j := range x {
					x[j] = g
				}
				for j := range x {
					if x[j] != g {
						t.Errorf("object shared by two holders")
						return
					}
				}
				l.Put(x)
				if i%500 == 0 {
					l.age()
				}
			}
		}(g)
	}
	wg.Wait()
}
