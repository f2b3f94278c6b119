// Package order implements the formal machinery of Neumann & Moerkotte's
// order-optimization framework (ICDE 2004): attributes, logical orderings,
// functional dependencies in normal form, the derivation relation o ⊢_f o'
// of §2, and the closure Ω(O, F) together with the pruning heuristics of
// §5.7. The NFSM/DFSM construction in internal/nfsm and internal/dfsm is
// built on top of this package.
package order

import (
	"fmt"
	"sort"
	"strings"

	"orderopt/internal/bitset"
)

// Attr identifies an attribute (column) within one query. Attributes are
// dense small integers handed out by a Registry so that attribute sets fit
// in bitsets and orderings compare cheaply.
type Attr int32

// Registry maps attribute names to dense Attr ids. The zero value is not
// usable; create one with NewRegistry.
type Registry struct {
	names []string
	ids   map[string]Attr
}

// NewRegistry returns an empty attribute registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[string]Attr)}
}

// Attr returns the id for name, creating it on first use.
func (r *Registry) Attr(name string) Attr {
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := Attr(len(r.names))
	r.names = append(r.names, name)
	r.ids[name] = id
	return id
}

// Name returns the name of a. It panics on unknown attributes.
func (r *Registry) Name(a Attr) string {
	if a < 0 || int(a) >= len(r.names) {
		panic(fmt.Sprintf("order: unknown attribute id %d", a))
	}
	return r.names[a]
}

// Len returns the number of registered attributes.
func (r *Registry) Len() int { return len(r.names) }

// Attrs returns the ids of the given names, creating them as needed.
func (r *Registry) Attrs(names ...string) []Attr {
	out := make([]Attr, len(names))
	for i, n := range names {
		out[i] = r.Attr(n)
	}
	return out
}

// FormatSeq renders an attribute sequence as "(a, b, c)".
func (r *Registry) FormatSeq(seq []Attr) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range seq {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.Name(a))
	}
	b.WriteByte(')')
	return b.String()
}

// FormatSet renders an attribute set as "{a, b}" with names sorted.
func (r *Registry) FormatSet(s *bitset.Set) string {
	names := make([]string, 0, s.Len())
	s.ForEach(func(i int) bool {
		names = append(names, r.Name(Attr(i)))
		return true
	})
	sort.Strings(names)
	return "{" + strings.Join(names, ", ") + "}"
}
