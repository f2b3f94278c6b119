package exec

import (
	"fmt"
	"sync/atomic"

	"orderopt/internal/plan"
	"orderopt/internal/query"
)

// This file is the one join engine. Every maximal left-deep chain of
// joins in a plan, a spine, compiles into one pull-based cursor over the
// spine's driving input: the first operator down the left that is not a
// join (a scan, a Sort, a grouping or an exchange). A join is a level of
// that cursor, not an operator. Per left row, a level finds its matches
// directly in its right-hand state (a hash bucket, a nested-loop inner, a
// merge group) and hands each on as a piece; the pieces are the driving
// row and each level's matched right row. Only the spine's output row is
// built, from the pieces, when the top level matches: no intermediate
// join row exists. A spine at the root of a stream builds not even that:
// it hands the stream's sink its pieces, and which of them are the rows
// of the row before (Pipeline.StreamPieces). A serial plan runs one
// cursor per spine (spineIter, under the top join's stats entry); an
// exchange's workers run one per morsel over the same compiled levels
// (Exchange.runMorsel).
//
// Every level preserves its left order: per left row its matches come in
// the order of its right-hand state. A spine's output is therefore its
// driving input's order, refined level by level, which is what the order
// claims of the DFSM states rest on and what the exchange's reassembly
// argument needs (parallel.go). A merge level verifies its left keys
// ascending as they arrive, and its right input sorted as it is read.

// fusedEq is a column of a spine's left side resolved to a (piece,
// column) pair and, for a join equality, rcol, its column in the level's
// right row. In a spine's output layout (spine.fusedOut) it is one
// output column; rcol is unused there.
type fusedEq struct{ piece, col, rcol int32 }

// spine is a compiled left-deep chain of joins: its levels bottom-up and
// the output layout of the top join.
type spine struct {
	levels []spineLevel
	// fusedOut lists the output columns as (piece, column) pairs, the
	// live columns of each piece under a Group* (see Runner.shape); nil
	// emits every piece whole, concatenated.
	fusedOut []fusedEq
}

// spineLevel is one join of a spine.
type spineLevel struct {
	st  *OpStats
	op  plan.Op
	key fusedEq // the equality the join algorithm evaluates
	// check is what a candidate right row must satisfy besides: the other
	// equalities of a merge or hash join, every equality of a nested-loop
	// join.
	check []fusedEq

	right  Iterator     // the compiled right input; nil when adopted
	stream *mergeStream // a merge join reading right as a stream: serial, not adopted
	// resident, when set, is the stats entry of the bare scan whose
	// dataset state the level adopted at compile (Runner.joinRight) for
	// hash or rows: the scan never runs.
	resident *OpStats

	// The right-hand state: adopted, or filled by materialize at Open and
	// dropped at Close; read-only in between, so an exchange's workers
	// share it.
	hash *hashView // a hash join's build table
	rows []Row     // a merge join's sorted right rows, a nested-loop join's inner
}

// materialize fills the level's right-hand state: the right input run to
// completion into a build table (buildHash) or into a rowBuf charged to
// life, a merge join's verified sorted as it drains. An adopted build
// table credits its scan's entry with its rows; an adopted view's entry
// counts what cursors read of it (levelCursor.read). A streamed merge
// join only starts its stream over.
func (l *spineLevel) materialize(life *Life) error {
	switch {
	case l.stream != nil:
		l.stream.reset()
		return nil
	case l.resident != nil:
		if l.hash != nil {
			l.resident.Rows = int64(len(l.hash.rows))
		}
		return nil
	case l.op == plan.HashJoin:
		var err error
		l.hash, err = buildHash(l.right, int(l.key.rcol), life)
		return err
	}
	var rows rowBuf
	key := l.key.rcol
	err := drainInto(l.right, func(row Row) error {
		if n := len(rows.rows); l.op == plan.MergeJoin && n > 0 && row[key] < rows.rows[n-1][key] {
			return errUnsorted("right", row[key], rows.rows[n-1][key])
		}
		return rows.append(life, row)
	})
	l.rows = rows.rows
	return err
}

// release drops the right-hand state materialize filled; a build table
// goes back to hashPool. Adopted state is the dataset's.
func (l *spineLevel) release() {
	if l.resident != nil {
		return
	}
	if l.hash != nil {
		l.hash.recycle()
	}
	l.hash, l.rows = nil, nil
}

func errUnsorted(side string, k, prev int64) error {
	return fmt.Errorf("exec: merge join %s input not sorted (key %d after %d)", side, k, prev)
}

// mergeStream is a merge level reading its right input as a stream. It
// buffers only the current duplicate-key group, charged as it doubles
// and reused by every group, and one row of lookahead, and it verifies
// the input sorted on the key as it reads, to the end of the stream
// (drain) whatever the left side still needs.
type mergeStream struct {
	right Iterator
	col   int
	life  *Life

	group     rowBuf
	gkey      int64
	haveGroup bool
	next      Row // the first row of the next group
	prev      int64
	read      bool // prev holds the key of a row read
	done      bool
}

func (m *mergeStream) reset() {
	m.group.rows, m.haveGroup, m.next, m.read, m.done = m.group.rows[:0], false, nil, false, false
}

// pull reads the right input's next row, verifying it sorted.
func (m *mergeStream) pull() (Row, bool, error) {
	row, ok, err := m.right.Next()
	if err != nil || !ok {
		m.done = err == nil
		return nil, false, err
	}
	k := row[m.col]
	if m.read && k < m.prev {
		return nil, false, errUnsorted("right", k, m.prev)
	}
	m.prev, m.read = k, true
	return row, true, nil
}

// seek returns the group of right rows with key k, nil when there is
// none. The keys sought must not decrease.
func (m *mergeStream) seek(k int64) ([]Row, error) {
	for !m.haveGroup || m.gkey < k {
		if m.next == nil {
			if m.done {
				return nil, nil
			}
			row, ok, err := m.pull()
			if !ok {
				return nil, err
			}
			m.next = row
		}
		m.group.rows, m.gkey, m.haveGroup = m.group.rows[:0], m.next[m.col], true
		for row := m.next; row != nil && row[m.col] == m.gkey; {
			if err := m.group.append(m.life, row); err != nil {
				return nil, err
			}
			var err error
			if row, _, err = m.pull(); err != nil {
				return nil, err
			}
			m.next = row
		}
	}
	if m.gkey == k {
		return m.group.rows, nil
	}
	return nil, nil
}

// drain reads the rest of the right input, verifying it sorted.
func (m *mergeStream) drain() error {
	for !m.done {
		if _, _, err := m.pull(); err != nil {
			return err
		}
	}
	return nil
}

// levelCursor is one level's position within a cursor.
type levelCursor struct {
	cand []Row // the right rows that may match the current left row
	rows int64 // rows the level emitted, not yet added to its OpStats
	key  int64 // merge: the left key cand was sought for
	i    int32 // the next candidate
	ge   int32 // merge over sorted rows: where cand ends, and the next seek starts
	// read is, for a merge over an adopted view, the view rows a streamed
	// right input would have handed the level by now: through the last
	// group sought and one row of lookahead, and all of them once the
	// driving input has ended. It is the view's stats entry's count.
	read int32
	have bool // merge: key is set
}

// cursor runs a spine over its driving input. Next resumes at the level
// it last matched at: it advances that level's candidates, steps down a
// level when they run out and up one (starting it for the new left row)
// on each match, and emits a row when the top level matches. Each level
// counts its rows, and flush adds them to their stats entries. Fan-out
// makes rows no scan reads, so the cursor polls life every
// CancelCheckInterval rows it emits, as a scan polls the rows it reads.
type cursor struct {
	spine
	in     Iterator
	life   *Life
	alloc  rowAlloc
	pieces []Row
	at     []levelCursor
	depth  int // the level Next resumes at; -1 pulls a driving row
	low    int // the pieces below it are the row before's
}

// newCursor returns a cursor of sp over in, polling life.
func (sp *spine) newCursor(in Iterator, life *Life) cursor {
	return cursor{spine: *sp, in: in, life: life, depth: -1,
		pieces: make([]Row, len(sp.levels)+1), at: make([]levelCursor, len(sp.levels))}
}

// Next returns the spine's next output row.
func (c *cursor) Next() (Row, bool, error) { return c.advance(true) }

// advance sets pieces to the spine's next output row and low to the
// lowest piece it wrote, and returns the row built from the pieces when
// build is set. When the driving input ends, every streamed merge level
// drains its right input, so its sortedness check covers the whole
// stream the plan claimed sorted.
func (c *cursor) advance(build bool) (Row, bool, error) {
	levels, pieces := c.levels, c.pieces
	top := len(levels) - 1
	// A level's match writes the piece above it, and only after a descent
	// is a level lower than the last one matched; so low is the lowest
	// level descended to, plus one.
	k, low := c.depth, top+1
	for {
		if k < 0 {
			d, ok, err := c.in.Next()
			if !ok {
				if err == nil {
					err = c.drain()
				}
				return nil, false, err
			}
			if pieces[0], k, low = d, 0, 0; top < 0 {
				c.low = 0
				return d, true, nil
			}
			if err := c.start(k); err != nil {
				return nil, false, err
			}
		}
		at := &c.at[k]
		r := at.match(pieces, levels[k].check)
		if r == nil {
			k--
			low = min(low, k+1)
			continue
		}
		pieces[k+1] = r
		if at.rows++; k == top {
			// The first row and every CancelCheckInterval-th after it.
			if at.rows&(CancelCheckInterval-1) == 1 {
				if err := c.life.Err(); err != nil || c.life.drained() {
					return nil, false, err
				}
			}
			if c.depth, c.low = k, low; build {
				return c.emit()
			}
			return nil, true, nil
		}
		k++
		if err := c.start(k); err != nil {
			return nil, false, err
		}
	}
}

// start finds level k's candidates for the left row in pieces[:k+1].
func (c *cursor) start(k int) error {
	l, at := &c.levels[k], &c.at[k]
	lk := c.pieces[l.key.piece][l.key.col]
	at.i = 0
	switch {
	case l.op == plan.HashJoin:
		at.cand = l.hash.bucket(lk)
	case l.op == plan.NestedLoopJoin:
		at.cand = l.rows
	case at.have && lk == at.key:
		// The same merge group again.
	case at.have && lk < at.key:
		return errUnsorted("left", lk, at.key)
	case l.stream != nil:
		at.key, at.have = lk, true
		var err error
		at.cand, err = l.stream.seek(lk)
		return err
	default:
		at.key, at.have = lk, true
		rows, col := l.rows, l.key.rcol
		gs := gallopGE(rows, int(col), int(at.ge), lk)
		ge := gs
		for ge < len(rows) && rows[ge][col] == lk {
			ge++
		}
		at.cand, at.ge, at.read = rows[gs:ge], int32(ge), int32(min(ge+1, len(rows)))
	}
	return nil
}

// match returns the level's next candidate that satisfies check against
// the left row in pieces, nil when none is left.
func (at *levelCursor) match(pieces []Row, check []fusedEq) Row {
next:
	for int(at.i) < len(at.cand) {
		r := at.cand[at.i]
		at.i++
		for _, e := range check {
			if pieces[e.piece][e.col] != r[e.rcol] {
				continue next
			}
		}
		return r
	}
	return nil
}

// emit builds the output row from the pieces. A chunk the budget refuses
// fails the row with ErrBudgetExceeded.
func (c *cursor) emit() (Row, bool, error) {
	if c.fusedOut == nil {
		n := 0
		for _, p := range c.pieces {
			n += len(p)
		}
		out, err := c.alloc.concatN(c.pieces, n)
		return out, err == nil, err
	}
	out, err := c.alloc.carve(len(c.fusedOut))
	if err != nil {
		return nil, false, err
	}
	for i, f := range c.fusedOut {
		out[i] = c.pieces[f.piece][f.col]
	}
	return out, true, nil
}

// drain drains every streamed merge level's right input, bottom-up, and
// counts every adopted view read.
func (c *cursor) drain() error {
	for k := range c.levels {
		l := &c.levels[k]
		if l.stream != nil {
			if err := l.stream.drain(); err != nil {
				return err
			}
		}
		c.at[k].read = int32(len(l.rows))
	}
	return nil
}

// flush adds the rows each level emitted to its stats entry, and raises
// an adopted view's entry to what the level read of it; an exchange's
// workers share the entries.
func (c *cursor) flush() {
	for k := range c.at {
		l, at := &c.levels[k], &c.at[k]
		countRows(l.st, at.rows)
		if l.resident != nil && l.hash == nil {
			for n := int64(at.read); ; {
				cur := atomic.LoadInt64(&l.resident.Rows)
				if n <= cur || atomic.CompareAndSwapInt64(&l.resident.Rows, cur, n) {
					break
				}
			}
		}
		at.rows = 0
	}
}

// spineIter runs a spine serially: one cursor over the driving input,
// under the top join's stats entry, which is the one part of the spine a
// fault hook is offered. Its Life is the one charged for its output
// chunks and for what the levels materialize.
type spineIter struct {
	cursor
	opened bool
}

func newSpineIter(in Iterator, life *Life, sp spine) *spineIter {
	s := &spineIter{cursor: sp.newCursor(in, life)}
	s.alloc.life = life
	return s
}

// NewJoin returns a join of left and right on left[leftKey] =
// right[rightKey] by op (plan.MergeJoin, plan.HashJoin or
// plan.NestedLoopJoin): a spine of one level emitting left ++ right.
// life, when set, is charged for what the join keeps and for the chunks
// its rows are carved from.
func NewJoin(op plan.Op, left, right Iterator, leftKey, rightKey int, life *Life) Iterator {
	l := spineLevel{op: op, st: &OpStats{}, right: right, key: fusedEq{col: int32(leftKey), rcol: int32(rightKey)}}
	switch op {
	case plan.NestedLoopJoin:
		l.check = []fusedEq{l.key}
	case plan.MergeJoin:
		l.stream = &mergeStream{right: right, col: rightKey, life: life}
	}
	return newSpineIter(left, life, spine{levels: []spineLevel{l}})
}

// Open implements Iterator. A level's right-hand state is materialized
// before its left side opens, and a streamed right input is opened after
// it, so the left side is open, and closed by Close, when a right input
// fails to open.
func (s *spineIter) Open() error {
	s.opened = true // before anything opens: Close then closes whatever Open reached
	s.depth = -1
	return s.open(len(s.levels) - 1)
}

func (s *spineIter) open(k int) error {
	if k < 0 {
		return s.in.Open()
	}
	l := &s.levels[k]
	if err := l.materialize(s.life); err != nil {
		return err
	}
	if err := s.open(k - 1); err != nil {
		return err
	}
	if l.stream != nil {
		return l.right.Open()
	}
	return nil
}

// Close implements Iterator.
func (s *spineIter) Close() error {
	if !s.opened {
		return nil
	}
	s.opened = false
	s.flush()
	clear(s.pieces)
	clear(s.at)
	err := s.in.Close()
	for k := range s.levels {
		l := &s.levels[k]
		if l.stream != nil {
			l.stream.group = rowBuf{}
			if cerr := l.right.Close(); err == nil {
				err = cerr
			}
		}
		l.release()
	}
	return err
}

func isJoin(op plan.Op) bool {
	return op == plan.MergeJoin || op == plan.HashJoin || op == plan.NestedLoopJoin
}

// spineShape is a spine as its Shape keeps it: the levels bottom-up and
// the output layout of the top join (spine.fusedOut).
type spineShape struct {
	levels   []levelShape
	fusedOut []fusedEq
}

// levelShape is one join of a spineShape.
type levelShape struct {
	op    plan.Op
	st    int // its entry in Shape.ops
	key   fusedEq
	check []fusedEq
	right *opShape // the right input, compiled unless adopt is taken
	// adopt is right's scan when the level may adopt dataset state in its
	// place (Runner.joinRight): a bare, unfiltered scan under a hash join,
	// or an index scan led by the join key under a merge join. col is the
	// join key's column in it.
	adopt *leafShape
	col   int
	// stream marks a serial merge join, which streams a right input it
	// does not adopt.
	stream bool
}

// shapeSpine compiles the spine whose top join is n, with entry st, into
// sp and returns its output schema. Each lower join's entry is
// registered in plan preorder; dops, when set (an exchange's spine),
// collects them. drive compiles the driving input, the way its compiler
// does, and returns its schema.
func (r *Runner) shapeSpine(n *plan.Node, s *Shape, st int, live liveCols, sp *spineShape, dops *[]int,
	drive func(n *plan.Node, live liveCols) ([]query.ColumnRef, error)) ([]query.ColumnRef, error) {
	var buf [8][]query.ColumnRef
	pieces := buf[:0] // each piece's schema
	var level func(n *plan.Node, st int, live liveCols) error
	level = func(n *plan.Node, st int, live liveCols) error {
		lrels := planRels(n.Left)
		eqs, primary, detail, err := r.joinPreds(n, lrels, planRels(n.Right))
		if err != nil {
			return err
		}
		s.ops[st].Detail = detail
		liveL, liveR := joinLive(live, eqs, lrels)
		if left := n.Left; isJoin(left.Op) {
			lst := s.entry(left)
			if dops != nil {
				*dops = append(*dops, lst)
			}
			err = level(left, lst, liveL)
		} else {
			var ls []query.ColumnRef
			ls, err = drive(left, liveL)
			pieces = append(pieces, ls)
		}
		if err != nil {
			return err
		}
		l := levelShape{op: n.Op, st: st, stream: n.Op == plan.MergeJoin && dops == nil}
		rs, err := r.shapeRight(n, &l, eqs[primary].rc, liveR, s)
		if err != nil {
			return err
		}
		for i, e := range eqs {
			f, rc := locate(pieces, e.lc), colPos(rs, e.rc)
			if f.piece < 0 || rc < 0 {
				return fmt.Errorf("exec: join predicate columns not in schemas")
			}
			f.rcol = int32(rc)
			if i == primary {
				l.key = f
			}
			if i != primary || n.Op == plan.NestedLoopJoin {
				l.check = append(l.check, f)
			}
		}
		pieces = append(pieces, rs)
		sp.levels = append(sp.levels, l)
		return nil
	}
	if err := level(n, st, live); err != nil {
		return nil, err
	}
	width := 0
	for _, ps := range pieces {
		width += len(ps)
	}
	schema := make([]query.ColumnRef, 0, width)
	if live == nil {
		for _, ps := range pieces {
			schema = append(schema, ps...)
		}
		return schema, nil
	}
	for j, ps := range pieces {
		for c, col := range ps {
			if colPos(live, col) >= 0 {
				schema = append(schema, col)
				sp.fusedOut = append(sp.fusedOut, fusedEq{piece: int32(j), col: int32(c)})
			}
		}
	}
	if len(schema) == width {
		sp.fusedOut = nil
	}
	return schema, nil
}

// shapeRight compiles join n's right input into level l and returns its
// schema; the join reads column key of it, and live is read above. A
// streamed merge join's right input releases each group its join is
// done with.
func (r *Runner) shapeRight(n *plan.Node, l *levelShape, key query.ColumnRef, live liveCols, s *Shape) ([]query.ColumnRef, error) {
	hold := 0
	if l.stream {
		hold = holdReleased
	}
	right, schema, err := r.shape(n.Right, s, live, hold)
	if err != nil {
		return nil, err
	}
	l.right = right
	if leaf := right.leaf; leaf != nil && n.Op != plan.NestedLoopJoin && leaf.pred == nil {
		l.col = colPos(leaf.schema, key)
		if n.Op == plan.HashJoin || leaf.leading >= 0 && l.col == leaf.leading {
			l.adopt = leaf
		}
	}
	return schema, nil
}

// buildSpine compiles spine shape sh into sp, its driving input (drive)
// first and then each level's right input, bottom-up.
func (r *Runner) buildSpine(sh *spineShape, p *Pipeline, sp *spine, drive func() error) error {
	if err := drive(); err != nil {
		return err
	}
	sp.levels, sp.fusedOut = make([]spineLevel, len(sh.levels)), sh.fusedOut
	for k := range sh.levels {
		ls, l := &sh.levels[k], &sp.levels[k]
		*l = spineLevel{op: ls.op, st: p.Ops[ls.st], key: ls.key, check: ls.check}
		if err := r.joinRight(ls, l, p); err != nil {
			return err
		}
		if ls.stream && l.resident == nil {
			l.stream = &mergeStream{right: l.right, col: int(l.key.rcol), life: p.Life}
		}
	}
	return nil
}

// locate returns column c's (piece, column) pair among the pieces'
// schemas, piece -1 when no piece carries it.
func locate(pieces [][]query.ColumnRef, c query.ColumnRef) fusedEq {
	for j, ps := range pieces {
		if i := colPos(ps, c); i >= 0 {
			return fusedEq{piece: int32(j), col: int32(i)}
		}
	}
	return fusedEq{piece: -1}
}

// joinRight compiles level ls's right input into l. Both compilers
// adopt dataset state for a bare, unfiltered scan by one rule: a hash
// join adopts the resident build table over it, a merge join the index
// view sorted on its key. The scan never runs: its stats entry, marked
// resident, stands for the adopted state. Adopted state is the dataset's
// memory: the query materializes nothing and is charged nothing. Nothing
// is adopted under a fault hook, which must be offered every scan that
// runs, nor a build table the memory limit has no room for; such an
// input is compiled like any other.
func (r *Runner) joinRight(ls *levelShape, l *spineLevel, p *Pipeline) error {
	if a := ls.adopt; a != nil && r.Hook == nil {
		if rows, err := r.rows(a); err == nil {
			adopt := true
			if ls.op == plan.HashJoin {
				key := a.key
				key.col = ls.col
				l.hash = r.Dataset.buildTable(key, rows)
				adopt = l.hash != nil
			} else {
				l.rows = rows
			}
			if adopt {
				l.resident = p.Ops[ls.right.st]
				l.resident.Resident = true
				return nil
			}
		}
	}
	var err error
	l.right, err = r.build(ls.right, p)
	return err
}
