// Package bitset provides a growable bit set used throughout the order
// optimization framework: attribute sets in functional dependencies, node
// sets during the NFSM→DFSM powerset construction, and the rows of the
// precomputed contains matrix.
//
// The zero value is an empty set ready to use. All operations treat bits
// beyond the stored words as zero.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a growable bit set. The zero value is empty and ready to use.
type Set struct {
	words []uint64
}

// New returns a set with capacity for n bits preallocated.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add sets bit i. It panics if i is negative.
func (s *Set) Add(i int) {
	if i < 0 {
		panic("bitset: negative index")
	}
	w := i / wordBits
	s.grow(w)
	s.words[w] |= 1 << (uint(i) % wordBits)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<(uint(i)%wordBits)) != 0
}

// Len returns the number of set bits.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// UnionWith adds every element of t to s.
func (s *Set) UnionWith(t *Set) {
	s.grow(len(t.words) - 1)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false the iteration stops.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Min returns the smallest element and true, or 0 and false if empty.
func (s *Set) Min() (int, bool) {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// Key returns a compact string usable as a map key; equal sets yield
// equal keys regardless of capacity.
func (s *Set) Key() string {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	var b strings.Builder
	b.Grow(n * 17)
	for i := 0; i < n; i++ {
		b.WriteString(strconv.FormatUint(s.words[i], 16))
		b.WriteByte(',')
	}
	return b.String()
}

// String renders the set as {1, 5, 9} for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// Bytes returns the memory footprint of the set's backing storage in
// bytes. Used by the experiment harness for memory accounting.
func (s *Set) Bytes() int {
	return len(s.words) * 8
}
