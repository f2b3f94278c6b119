package order

import "slices"

// EquivClasses computes, for every attribute, the representative of its
// equivalence class under all equations occurring in the given FD sets
// (union-find; the smallest attribute id of a class is its
// representative). Attributes never mentioned in an equation map to
// themselves. The result is used by the prefix-viability heuristic of
// §5.7, which compares prefixes modulo equivalence.
func EquivClasses(nAttrs int, sets []FDSet) []Attr {
	parent := make([]Attr, nAttrs)
	for i := range parent {
		parent[i] = Attr(i)
	}
	var find func(a Attr) Attr
	find = func(a Attr) Attr {
		if parent[a] != a {
			parent[a] = find(parent[a])
		}
		return parent[a]
	}
	union := func(a, b Attr) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra > rb { // smaller id becomes representative
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	for _, s := range sets {
		for _, fd := range s.FDs {
			if fd.Kind == KindEquation {
				union(fd.Left, fd.Right)
			}
		}
	}
	reps := make([]Attr, nAttrs)
	for i := range reps {
		reps[i] = find(Attr(i))
	}
	return reps
}

// repDedup maps seq through reps and appends to out only the first
// occurrence of each representative; out may be seq[:0]. The result is
// the canonical form the prefix heuristic reasons about: under a = b,
// (a, b, c) and (a, c) describe the same ordering constraint. With nil
// reps it only drops repeated attributes, keeping the first of each.
func repDedup(out, seq, reps []Attr) []Attr {
	for _, a := range seq {
		r := a
		if reps != nil && int(a) < len(reps) {
			// Attributes registered after the equivalence classes were
			// computed cannot occur in any equation; they represent
			// themselves.
			r = reps[a]
		}
		if !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

// PrefixIndex answers the §5.7 viability question in O(1): is the given
// (representative-mapped, deduplicated) sequence a prefix of some
// interesting order, and how long (raw attribute count) is the longest
// such order? Only orderings that can still reach an interesting order
// are worth keeping in the NFSM.
type PrefixIndex struct {
	reps   []Attr
	maxRaw map[string]int // rep-dedup prefix key → longest matching order raw length
	max    int            // longest interesting order (raw length)
}

// NewPrefixIndex builds the index over the interesting orders.
func NewPrefixIndex(in *Interner, interesting []ID, reps []Attr) *PrefixIndex {
	idx := &PrefixIndex{reps: reps, maxRaw: make(map[string]int)}
	for _, id := range interesting {
		raw := len(in.Seq(id))
		if raw > idx.max {
			idx.max = raw
		}
		canon := repDedup(nil, in.Seq(id), reps)
		for n := 0; n <= len(canon); n++ {
			k := string(appendSeqKey(nil, canon[:n]))
			if raw > idx.maxRaw[k] {
				idx.maxRaw[k] = raw
			}
		}
	}
	return idx
}

// Viable reports whether the prefix can still contribute: its rep-dedup
// form is a prefix of an interesting order. longest is the raw length
// worth keeping.
func (ix *PrefixIndex) Viable(seq []Attr) (longest int, ok bool) {
	canon := repDedup(make([]Attr, 0, 16), seq, ix.reps)
	longest, ok = ix.maxRaw[string(appendSeqKey(make([]byte, 0, 64), canon))]
	return longest, ok
}

// MaxLen returns the raw length budget: the longest interesting order.
func (ix *PrefixIndex) MaxLen() int { return ix.max }

// Deriver evaluates the derivation relation o ⊢_f o' of §2 and the
// closure Ω(O, F), subject to the optional pruning heuristics of §5.7.
// With both heuristics disabled it computes the exact closure.
type Deriver struct {
	In *Interner
	// Reps holds equivalence-class representatives (from EquivClasses);
	// nil means every attribute represents itself.
	Reps []Attr
	// Index enables the prefix-viability heuristic: a derived ordering is
	// kept only if its prefix (up to and including the inserted
	// attribute) is, modulo equivalence, a prefix of an interesting
	// order; the result is truncated to the longest matching order
	// (§5.7). nil disables the heuristic.
	Index *PrefixIndex
	// MaxLen cuts derived orderings after the raw length of the longest
	// interesting order (§5.7: "the orderings created by functional
	// dependencies can be cut off after the maximum length of
	// interesting orders"). 0 disables the cutoff.
	MaxLen int

	// Scratch: stamp[id] == gen marks a member of the closure under way,
	// members is that closure so far (and its queue), derived one step's
	// output, seq a candidate ordering.
	stamp   []uint32
	gen     uint32
	members []ID
	derived []ID
	seq     []Attr
}

// contains reports whether a occurs in seq and returns its index.
func indexOf(seq []Attr, a Attr) int {
	for i, x := range seq {
		if x == a {
			return i
		}
	}
	return -1
}

// insertions yields the orderings derived from seq by inserting dep at
// every position in [start, len(seq)], subject to the pruning filters:
// insertions beyond the length cutoff are dropped (positions past the
// longest interesting order never influence plan generation), candidates
// whose prefix cannot lead to an interesting order are rejected, and
// survivors are truncated to the longest matching interesting order.
func (d *Deriver) insertions(seq []Attr, dep Attr, start int, out []ID) []ID {
	if indexOf(seq, dep) >= 0 {
		return out // duplicate insertion is always redundant
	}
	for p := start; p <= len(seq); p++ {
		if d.MaxLen > 0 && p >= d.MaxLen {
			break
		}
		cand := append(append(append(d.seq[:0], seq[:p]...), dep), seq[p:]...)
		d.seq = cand
		cap := len(cand)
		if d.Index != nil {
			longest, ok := d.Index.Viable(cand[:p+1])
			if !ok {
				continue
			}
			if longest < cap {
				cap = longest
			}
		}
		if d.MaxLen > 0 && d.MaxLen < cap {
			cap = d.MaxLen
		}
		if cap < p+1 {
			cap = p + 1 // never truncate away the inserted attribute
		}
		out = append(out, d.In.Intern(cand[:cap]))
	}
	return out
}

// Derive returns the orderings derivable from o by a single application
// of fd (o itself excluded). This is the one-step relation the closure
// iterates; see §2 for the three cases.
func (d *Deriver) Derive(o ID, fd FD) []ID { return d.derive(o, fd, nil) }

// derive appends Derive(o, fd) to out, which must be empty.
func (d *Deriver) derive(o ID, fd FD, out []ID) []ID {
	seq := d.In.Seq(o)
	switch fd.Kind {
	case KindFD:
		// X → y: insert y anywhere after all of X has occurred.
		start := 0
		applicable := true
		fd.Determinant.ForEach(func(i int) bool {
			idx := indexOf(seq, Attr(i))
			if idx < 0 {
				applicable = false
				return false
			}
			if idx+1 > start {
				start = idx + 1
			}
			return true
		})
		if applicable {
			out = d.insertions(seq, fd.Dependent, start, out)
		}

	case KindConstant:
		// a = const ≡ ∅ → a: insert anywhere.
		out = d.insertions(seq, fd.Dependent, 0, out)

	case KindEquation:
		// a = b: both FD directions (with insertion allowed at the
		// position of the equated attribute itself, §5.7), plus
		// replacement of occurrences in either direction.
		for _, dir := range [2][2]Attr{{fd.Left, fd.Right}, {fd.Right, fd.Left}} {
			a, b := dir[0], dir[1]
			if i := indexOf(seq, a); i >= 0 {
				out = d.insertions(seq, b, i, out)
				// Replace a by b; if b already occurs the result has a
				// duplicate and only the first occurrence is kept (the
				// orderings are equivalent).
				repl := append(d.seq[:0], seq...)
				d.seq = repl
				repl[i] = b
				if id := d.In.Intern(repDedup(repl[:0], repl, nil)); id != o {
					out = append(out, id)
				}
			}
		}
	}
	return dedupIDs(out, o)
}

// dedupIDs removes repeated IDs and exclude in place, keeping the first
// occurrence of each.
func dedupIDs(ids []ID, exclude ID) []ID {
	out := ids[:0]
	for _, id := range ids {
		if id != exclude && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// Closure computes Ω(seed, fds): the prefix closure of everything
// derivable from seed by any number of FD applications (§2), subject to
// the Deriver's pruning heuristics. The result contains the seed, all
// derived orderings and all their non-empty prefixes, sorted
// deterministically. The result is the call's only allocation once the
// Deriver's scratch has grown.
func (d *Deriver) Closure(seed []ID, fds []FD) []ID {
	out := slices.Clone(d.ClosureView(seed, fds))
	d.In.SortIDs(out)
	return out
}

// ClosureView is Closure's members in discovery order, in the Deriver's
// own buffer: valid until its next call, and no allocation once its
// scratch has grown.
func (d *Deriver) ClosureView(seed []ID, fds []FD) []ID {
	d.gen++
	d.members = d.members[:0]
	for _, id := range seed {
		d.add(id)
	}
	for i := 0; i < len(d.members); i++ {
		o := d.members[i]
		for _, fd := range fds {
			d.derived = d.derive(o, fd, d.derived[:0])
			for _, n := range d.derived {
				d.add(n)
			}
		}
	}
	return d.members
}

// add enters id into the closure under way, and with it every prefix
// (prefix closure: every prefix of a member is a member).
func (d *Deriver) add(id ID) {
	for ; id != EmptyID; id = d.In.Prefix(id) {
		if int(id) >= len(d.stamp) {
			d.stamp = append(d.stamp, make([]uint32, int(id)+1-len(d.stamp))...)
		}
		if d.stamp[id] == d.gen {
			return
		}
		d.stamp[id] = d.gen
		d.members = append(d.members, id)
	}
}

// FDsOf flattens a list of FD sets into a deduplicated FD list.
func FDsOf(sets []FDSet) []FD {
	seen := make(map[string]bool)
	var out []FD
	for _, s := range sets {
		for _, fd := range s.FDs {
			k := fd.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, fd)
			}
		}
	}
	return out
}

// NaiveOmega is the reference implementation of Ω(seed, fds) used by
// tests: the unpruned, prefix-closed closure, bounded only by limit
// (number of distinct orderings explored) so pathological inputs cannot
// explode.
func NaiveOmega(in *Interner, seed []ID, fds []FD, limit int) map[ID]bool {
	d := &Deriver{In: in}
	inSet := map[ID]bool{}
	queue := []ID{}
	var add func(id ID)
	add = func(id ID) {
		if id == EmptyID || inSet[id] || len(inSet) >= limit {
			return
		}
		inSet[id] = true
		queue = append(queue, id)
		add(in.Prefix(id))
	}
	for _, id := range seed {
		add(id)
	}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		for _, fd := range fds {
			for _, n := range d.Derive(o, fd) {
				add(n)
			}
		}
	}
	return inSet
}

// NaiveContains is the single-operator oracle: whether required is in
// Ω({produced}, fds).
func NaiveContains(in *Interner, produced ID, fds []FD, required ID, limit int) bool {
	return NaiveOmega(in, []ID{produced}, fds, limit)[required]
}

// NaiveSequentialContains is the oracle for the full ADT semantics of §2:
// starting from the produced ordering, each operator's FD set is applied
// in sequence, O_{i+1} = Ω(O_i, F_i), exactly like repeated calls to
// inferNewLogicalOrderings. Note that this is deliberately weaker than
// Ω(O, ∪F_i): an earlier operator's dependency does not fire again when a
// later operator makes it applicable — the framework (like the ADT spec
// it implements) composes per-operator closures sequentially.
func NaiveSequentialContains(in *Interner, produced ID, sets []FDSet, required ID, limit int) bool {
	cur := map[ID]bool{}
	for id := range NaiveOmega(in, []ID{produced}, nil, limit) {
		cur[id] = true
	}
	for _, s := range sets {
		seed := make([]ID, 0, len(cur))
		for id := range cur {
			seed = append(seed, id)
		}
		cur = NaiveOmega(in, seed, s.FDs, limit)
	}
	return cur[required]
}
