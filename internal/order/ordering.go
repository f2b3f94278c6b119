package order

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strconv"
)

// ID is the interned handle of a logical ordering. Equal orderings always
// receive equal IDs, so during plan generation orderings compare in O(1)
// (paper §5.5: "every occurrence of an interesting order ... is replaced
// by a handle"). EmptyID is the empty ordering.
type ID int32

// EmptyID is the handle of the empty ordering (satisfied by any stream).
const EmptyID ID = 0

// Interner deduplicates orderings and hands out dense IDs. The zero value
// is not usable; create one with NewInterner.
type Interner struct {
	seqs [][]Attr
	ids  map[string]ID
}

// NewInterner returns an interner containing only the empty ordering.
func NewInterner() *Interner {
	in := &Interner{ids: make(map[string]ID)}
	in.seqs = append(in.seqs, nil) // EmptyID
	in.ids[""] = EmptyID
	return in
}

// appendSeqKey appends seq's map key to b: each attribute as a uvarint,
// prefix-free, so distinct sequences get distinct keys. Built in a stack
// buffer, a key costs an allocation only when it enters the map.
func appendSeqKey(b []byte, seq []Attr) []byte {
	for _, a := range seq {
		b = binary.AppendUvarint(b, uint64(uint32(a)))
	}
	return b
}

// Intern returns the ID for seq, registering it on first use. The
// sequence must be duplicate-free; Intern panics otherwise, because a
// logical ordering with a repeated attribute is always equivalent to the
// one with the duplicate dropped and the framework keeps orderings in
// that normal form.
func (in *Interner) Intern(seq []Attr) ID {
	key := appendSeqKey(make([]byte, 0, 64), seq)
	if id, ok := in.ids[string(key)]; ok {
		return id
	}
	for i, a := range seq {
		if slices.Contains(seq[:i], a) {
			panic("order: Intern called with duplicate attribute " + strconv.Itoa(int(a)))
		}
	}
	cp := make([]Attr, len(seq))
	copy(cp, seq)
	id := ID(len(in.seqs))
	in.seqs = append(in.seqs, cp)
	in.ids[string(key)] = id
	return id
}

// Clone returns an independent copy of the interner: it contains every
// ordering interned so far under the same IDs, and orderings interned
// into the clone afterwards do not affect the original. Concurrent plan
// generation gives each worker a clone because the Simmen baseline
// interns reduced orderings on the fly.
func (in *Interner) Clone() *Interner {
	cp := &Interner{
		seqs: make([][]Attr, len(in.seqs)),
		ids:  make(map[string]ID, len(in.ids)),
	}
	copy(cp.seqs, in.seqs) // sequences are immutable once interned
	for k, v := range in.ids {
		cp.ids[k] = v
	}
	return cp
}

// Seq returns the attribute sequence of id. Callers must not modify it.
func (in *Interner) Seq(id ID) []Attr { return in.seqs[id] }

// Count returns the number of interned orderings (including the empty one).
func (in *Interner) Count() int { return len(in.seqs) }

// Prefix returns the immediate proper prefix of id (one attribute
// shorter). The prefix of a length-1 ordering is EmptyID.
func (in *Interner) Prefix(id ID) ID {
	seq := in.seqs[id]
	if len(seq) == 0 {
		return EmptyID
	}
	return in.Intern(seq[:len(seq)-1])
}

// Prefixes returns all strict non-empty prefixes of id, shortest first.
func (in *Interner) Prefixes(id ID) []ID {
	seq := in.seqs[id]
	if len(seq) <= 1 {
		return nil
	}
	out := make([]ID, 0, len(seq)-1)
	for n := 1; n < len(seq); n++ {
		out = append(out, in.Intern(seq[:n]))
	}
	return out
}

// IsPrefixOf reports whether ordering a is a (non-strict) prefix of b.
func (in *Interner) IsPrefixOf(a, b ID) bool {
	sa, sb := in.seqs[a], in.seqs[b]
	if len(sa) > len(sb) {
		return false
	}
	for i, x := range sa {
		if sb[i] != x {
			return false
		}
	}
	return true
}

// Format renders ordering id using the registry's attribute names.
func (in *Interner) Format(reg *Registry, id ID) string {
	return reg.FormatSeq(in.seqs[id])
}

// SortIDs sorts ids by (length, lexicographic attr sequence) for
// deterministic output; ties cannot occur because IDs are interned.
func (in *Interner) SortIDs(ids []ID) {
	slices.SortFunc(ids, func(x, y ID) int {
		a, b := in.seqs[x], in.seqs[y]
		if c := cmp.Compare(len(a), len(b)); c != 0 {
			return c
		}
		return slices.Compare(a, b)
	})
}
