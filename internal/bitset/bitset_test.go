package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValue(t *testing.T) {
	var s Set
	if s.Len() != 0 {
		t.Fatalf("zero value not empty: %v", &s)
	}
	if s.Contains(0) || s.Contains(1000) {
		t.Fatal("zero value contains elements")
	}
	s.Add(130)
	if !s.Contains(130) || s.Len() != 1 {
		t.Fatalf("after Add(130): %v", &s)
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(0)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		s.Add(i)
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	if s.Contains(99999) || s.Contains(2) {
		t.Error("Contains reports a bit never added")
	}
}

func TestNegativeIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	New(0).Add(-1)
}

func TestContainsNegative(t *testing.T) {
	if fromInts(1, 2).Contains(-3) {
		t.Fatal("Contains(-3) = true")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := fromInts(1, 5, 70)
	b := fromInts(5, 6, 200)

	u := fromInts(1, 5, 70)
	u.UnionWith(b)
	if got, want := elems(u), []int{1, 5, 6, 70, 200}; !reflect.DeepEqual(got, want) {
		t.Errorf("union = %v, want %v", got, want)
	}
	if !a.SubsetOf(u) || !b.SubsetOf(u) || !fromInts(5).SubsetOf(a) {
		t.Error("operands not subsets of their union")
	}
	if a.SubsetOf(b) {
		t.Error("a ⊆ b should be false")
	}
}

func TestEqualIgnoresCapacity(t *testing.T) {
	a := New(1024)
	a.Add(3)
	b := fromInts(3)
	if a.Key() != b.Key() {
		t.Errorf("Key mismatch: %q vs %q", a.Key(), b.Key())
	}
}

func TestMin(t *testing.T) {
	if _, ok := New(0).Min(); ok {
		t.Error("Min of empty set reported ok")
	}
	if m, ok := fromInts(130, 7, 500).Min(); !ok || m != 7 {
		t.Errorf("Min = %d,%v, want 7,true", m, ok)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := fromInts(1, 2, 3, 4)
	n := 0
	s.ForEach(func(int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("visited %d elements, want 2", n)
	}
}

func TestString(t *testing.T) {
	if got := fromInts(2, 9).String(); got != "{2, 9}" {
		t.Errorf("String = %q", got)
	}
	if got := New(0).String(); got != "{}" {
		t.Errorf("String = %q", got)
	}
}

func TestBytes(t *testing.T) {
	s := New(0)
	s.Add(128)
	if got := s.Bytes(); got != 24 {
		t.Errorf("Bytes = %d, want 24", got)
	}
}

func fromInts(xs ...int) *Set {
	s := &Set{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func elems(s *Set) []int {
	var out []int
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// fromElems builds a Set from a random element list (property helper).
func fromElems(xs []uint16) *Set {
	s := &Set{}
	for _, x := range xs {
		s.Add(int(x) % 512)
	}
	return s
}

func TestQuickUnionCommutative(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		u1, u2 := fromElems(xs), fromElems(ys)
		u1.UnionWith(fromElems(ys))
		u2.UnionWith(fromElems(xs))
		return u1.Key() == u2.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// |A ∪ B| = |A| + |B| - |A ∩ B|
	f := func(xs, ys []uint16) bool {
		a, b, u := fromElems(xs), fromElems(ys), fromElems(xs)
		u.UnionWith(b)
		both := 0
		a.ForEach(func(i int) bool {
			if b.Contains(i) {
				both++
			}
			return true
		})
		return u.Len() == a.Len()+b.Len()-both
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickElemsSortedUnique(t *testing.T) {
	f := func(xs []uint16) bool {
		s := fromElems(xs)
		es := elems(s)
		if !sort.IntsAreSorted(es) {
			return false
		}
		for i := 1; i < len(es); i++ {
			if es[i] == es[i-1] {
				return false
			}
		}
		return len(es) == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAgainstMap(t *testing.T) {
	// Model-based: the Set must agree with a map[int]bool model under a
	// random operation sequence.
	rng := rand.New(rand.NewSource(42))
	s := &Set{}
	model := map[int]bool{}
	for step := 0; step < 20000; step++ {
		x := rng.Intn(300)
		switch rng.Intn(2) {
		case 0:
			s.Add(x)
			model[x] = true
		case 1:
			if s.Contains(x) != model[x] {
				t.Fatalf("step %d: Contains(%d) = %v, model %v", step, x, s.Contains(x), model[x])
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(model))
	}
}
