package exec

// Comparable grouping keys for hash grouping. Grouping keys of up to
// tupleKeyWidth columns are packed into a fixed-size int64 tuple and
// used directly as map keys — no per-row byte-string allocation, no
// encoding ambiguity. Wider keys (rare: querygen emits at most two
// grouping columns, TPC-R Q8 one) fall back to a second map keyed by a
// reduced tuple whose collision lists are compared element-wise,
// keeping correctness exact rather than hoping a hash never collides.

// tupleKeyWidth is the number of key columns the packed representation
// covers.
const tupleKeyWidth = 4

// tupleKey is a comparable grouping key over up to tupleKeyWidth
// columns. n disambiguates prefixes (unused slots stay zero).
type tupleKey struct {
	v [tupleKeyWidth]int64
	n uint8
}

func makeTupleKey(row Row, cols []int) tupleKey {
	var k tupleKey
	k.n = uint8(len(cols))
	for i, c := range cols {
		k.v[i] = row[c]
	}
	return k
}

// equalVals is the exact wide-key comparison of the group table
// (same-length slices by construction).
func equalVals(a, b []int64) bool {
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func wideVals(row Row, cols []int) []int64 {
	vals := make([]int64, len(cols))
	for i, c := range cols {
		vals[i] = row[c]
	}
	return vals
}

// wideReduce folds a wide key into a tupleKey used as the bucket key
// (first slots verbatim, the rest mixed into the last slot). Bucket
// members are still compared exactly.
func wideReduce(vals []int64) tupleKey {
	var k tupleKey
	k.n = uint8(tupleKeyWidth + 1) // distinct from any narrow key
	copy(k.v[:], vals[:tupleKeyWidth-1])
	h := int64(1469598103934665603) // FNV-1a offset basis
	for _, v := range vals[tupleKeyWidth-1:] {
		h = (h ^ v) * 1099511628211
	}
	k.v[tupleKeyWidth-1] = h
	return k
}

// groupTable maps grouping keys to accumulators, preserving insertion
// order for deterministic emission.
type groupTable struct {
	narrow map[tupleKey]*groupAcc
	wide   map[tupleKey][]int // indexes into order, exact-compared
	vals   [][]int64          // wide key values, parallel to order
	order  []*groupAcc
}

func newGroupTable(nCols int) groupTable {
	t := groupTable{}
	if nCols > tupleKeyWidth {
		t.wide = make(map[tupleKey][]int)
	} else {
		t.narrow = make(map[tupleKey]*groupAcc)
	}
	return t
}

// lookup returns the accumulator for the row's grouping key, creating
// it when absent (fresh=true).
func (t *groupTable) lookup(row Row, cols []int) (acc *groupAcc, fresh bool) {
	if t.narrow != nil {
		k := makeTupleKey(row, cols)
		if acc := t.narrow[k]; acc != nil {
			return acc, false
		}
		acc := &groupAcc{}
		t.narrow[k] = acc
		t.order = append(t.order, acc)
		return acc, true
	}
	vals := wideVals(row, cols)
	k := wideReduce(vals)
	for _, i := range t.wide[k] {
		if equalVals(t.vals[i], vals) {
			return t.order[i], false
		}
	}
	acc = &groupAcc{}
	t.wide[k] = append(t.wide[k], len(t.order))
	t.order = append(t.order, acc)
	t.vals = append(t.vals, vals)
	return acc, true
}
