package query

import (
	"math"
	"sort"

	"orderopt/internal/catalog"
)

// Fingerprinting gives every join graph a canonical identity, so two
// graphs can be compared without comparing structures (the SQL round-trip
// fuzz target checks that printed SQL binds to the same graph): two
// graphs that are semantically identical for the plan generator — same
// relations over the same table statistics, same predicates, same
// required orders — hash identically even when their edges or predicates
// were added in a different sequence. The encoding covers everything the
// optimizer's cost model and interesting-order analysis read: table
// cardinalities, per-column distinct counts, index definitions, constant
// predicates with their selectivities, join edges, GROUP BY and ORDER
// BY columns.

// CanonicalFingerprint returns the canonical 64-bit FNV-1a hash of a
// graph's AppendCanonical encoding. Callers keying anything by the
// fingerprint should keep the encoding alongside to rule out hash
// collisions.
func CanonicalFingerprint(canon []byte) uint64 {
	return fnv1a(canon)
}

// AppendCanonical appends the canonical byte encoding of the graph to
// buf and returns the extended slice. The encoding is deterministic and
// order-insensitive where the semantics are (edges, predicates within an
// edge, constant predicates), and order-sensitive where they are not
// (relation positions, GROUP BY / ORDER BY column sequences).
func (g *Graph) AppendCanonical(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(len(g.Relations)))
	for r := range g.Relations {
		buf = g.appendRelation(buf, r)
	}

	// Edges, sorted by endpoint pair; predicates within an edge sorted
	// by column pair. AddJoin already normalizes Left.Rel < Right.Rel
	// and merges duplicate pairs, so sorting the edge list by its
	// endpoints yields a total order.
	edges := make([]int, len(g.Edges))
	for i := range edges {
		edges[i] = i
	}
	sort.Slice(edges, func(i, j int) bool {
		ai, bi := g.Edges[edges[i]].Rels()
		aj, bj := g.Edges[edges[j]].Rels()
		if ai != aj {
			return ai < aj
		}
		return bi < bj
	})
	buf = appendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		preds := append([]JoinPred(nil), g.Edges[e].Preds...)
		sort.Slice(preds, func(i, j int) bool {
			if preds[i].Left != preds[j].Left {
				return refLess(preds[i].Left, preds[j].Left)
			}
			return refLess(preds[i].Right, preds[j].Right)
		})
		buf = appendUvarint(buf, uint64(len(preds)))
		for _, p := range preds {
			buf = appendRef(buf, p.Left)
			buf = appendRef(buf, p.Right)
		}
	}

	buf = appendUvarint(buf, uint64(len(g.GroupBy)))
	for _, c := range g.GroupBy {
		buf = appendRef(buf, c)
	}
	buf = appendUvarint(buf, uint64(len(g.OrderBy)))
	for _, c := range g.OrderBy {
		buf = appendRef(buf, c)
	}

	// Aggregate select list (order-sensitive: it fixes the output column
	// sequence) and LIMIT. Both change what the executor produces, so two
	// graphs differing only here must not share a cached plan's origin.
	buf = appendUvarint(buf, uint64(len(g.Aggregates)))
	for _, a := range g.Aggregates {
		buf = append(buf, byte(a.Fn))
		buf = appendRef(buf, a.Col)
	}
	buf = appendUvarint(buf, uint64(g.Limit))
	// The limited bit is derived (Limited()), not the raw HasLimit
	// flag, so a programmatic Limit > 0 and its SQL round trip (which
	// rebinds with HasLimit set) hash identically while LIMIT 0 still
	// differs from "no limit".
	if g.Limited() {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

func (g *Graph) appendRelation(buf []byte, r int) []byte {
	rel := &g.Relations[r]
	buf = appendString(buf, rel.Alias)
	buf = appendTable(buf, rel.Table)

	// Constant predicates, sorted by (column, kind, literal).
	preds := append([]ConstPred(nil), rel.ConstPreds...)
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].Col != preds[j].Col {
			return refLess(preds[i].Col, preds[j].Col)
		}
		if preds[i].Kind != preds[j].Kind {
			return preds[i].Kind < preds[j].Kind
		}
		return preds[i].Literal < preds[j].Literal
	})
	buf = appendUvarint(buf, uint64(len(preds)))
	for _, p := range preds {
		buf = appendRef(buf, p.Col)
		buf = append(buf, byte(p.Kind))
		buf = appendFloat(buf, p.Selectivity)
		buf = appendUvarint(buf, uint64(p.Literal))
		if p.HasLiteral {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

func appendTable(buf []byte, t *catalog.Table) []byte {
	buf = appendString(buf, t.Name)
	buf = appendUvarint(buf, uint64(t.Rows))
	buf = appendUvarint(buf, uint64(len(t.Columns)))
	for _, c := range t.Columns {
		buf = appendString(buf, c.Name)
		buf = append(buf, byte(c.Type))
		buf = appendUvarint(buf, uint64(c.Distinct))
	}
	buf = appendUvarint(buf, uint64(len(t.Indexes)))
	for _, ix := range t.Indexes {
		buf = appendString(buf, ix.Name)
		buf = appendUvarint(buf, uint64(len(ix.Columns)))
		for _, col := range ix.Columns {
			buf = appendString(buf, col)
		}
		if ix.Clustered {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = appendUvarint(buf, uint64(len(t.Keys)))
	for _, key := range t.Keys {
		buf = appendUvarint(buf, uint64(len(key)))
		for _, col := range key {
			buf = appendString(buf, col)
		}
	}
	return buf
}

func refLess(a, b ColumnRef) bool {
	if a.Rel != b.Rel {
		return a.Rel < b.Rel
	}
	return a.Col < b.Col
}

func appendRef(buf []byte, c ColumnRef) []byte {
	buf = appendUvarint(buf, uint64(c.Rel))
	return appendUvarint(buf, uint64(c.Col))
}

// appendUvarint writes v in a simple little-endian varint (7 bits per
// byte, high bit = continuation) — self-delimiting so adjacent fields
// cannot alias each other.
func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, f float64) []byte {
	// Selectivities are exact float64 values set by the workload; the
	// raw bits are the identity.
	return appendUvarint(buf, floatBits(f))
}

func floatBits(f float64) uint64 {
	if f == 0 { // normalize -0
		return 0
	}
	return math.Float64bits(f)
}

func fnv1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
