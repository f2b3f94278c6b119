package exec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// ExtSort is the spilling external sort: it materializes its input in
// bounded in-memory runs, flushes each full run — sorted — to a spill
// file, and merges the spilled runs (plus the final in-memory run) with
// a k-way heap. Memory stays charged through the pipeline's Life like
// the in-memory Sort's, but only for the current run: a flushed run's
// charge is released when its rows move to disk, so a sort whose input
// exceeds the query budget still completes as long as one run fits.
// The merge is globally stable: runs are sorted stably and the heap
// breaks key ties by run generation order.
type ExtSort struct {
	In   Iterator
	Keys []int
	Life *Life
	// MaxRunBytes bounds the in-memory run (rowBytes accounting, like
	// the budget's); crossing it flushes the run. Zero disables the
	// size trigger — runs then flush only when the budget pushes back.
	MaxRunBytes int64
	// Dir is the spill directory ("" means the OS temp directory).
	Dir string
	// St, when set, receives the spill counters (SpillRuns,
	// SpilledBytes) as runs flush.
	St *OpStats

	run      []Row
	runBytes int64
	width    int
	runs     []*spillRun
	heap     []mergeEntry
	memPos   int
	alloc    rowAlloc
	rowBuf   []byte
}

// spillRun is one flushed run: a file of rows×width little-endian
// int64s, read back sequentially during the merge.
type spillRun struct {
	f    *os.File
	br   *bufio.Reader
	rows int64
	read int64
}

// mergeEntry is one heap slot: the head row of source src. Sources
// 0..len(runs)-1 are the spilled runs in generation order; source
// len(runs) is the final in-memory run (generated last, so key ties
// break toward the spilled runs — global stability).
type mergeEntry struct {
	row Row
	src int
}

// Open implements Iterator: it drains and sorts the entire input
// before the first Next, spilling as the run bound or the memory
// budget demands. Like Sort, it closes its input inside Open on every
// path — the input is fully consumed here; spill files live until the
// sort's own Close.
func (s *ExtSort) Open() error {
	s.run, s.runBytes, s.runs, s.heap, s.memPos, s.width = nil, 0, nil, nil, 0, 0
	if err := drainInto(s.In, func(row Row) error {
		if s.width == 0 {
			s.width = len(row)
		}
		return s.add(row)
	}); err != nil {
		return err
	}
	sortRows(s.run, s.Keys)
	if len(s.runs) == 0 {
		return nil // everything fit: serve the single run from memory
	}
	// Seed the merge heap with every source's head row.
	for i := range s.runs {
		row, ok, err := s.readRow(s.runs[i])
		if err != nil {
			return err
		}
		if ok {
			s.push(mergeEntry{row: row, src: i})
		}
	}
	if len(s.run) > 0 {
		s.push(mergeEntry{row: s.run[0], src: len(s.runs)})
		s.memPos = 1
	}
	return nil
}

// add appends one row to the current run, flushing first when the run
// is full or the budget pushes back. A budget failure with an empty
// run is terminal: not even one row fits.
func (s *ExtSort) add(row Row) error {
	if err := s.Life.holdRow(row); err != nil {
		if len(s.run) == 0 {
			return err
		}
		if ferr := s.flushRun(); ferr != nil {
			return ferr
		}
		if err := s.Life.holdRow(row); err != nil {
			return err
		}
	}
	s.run = append(s.run, row)
	s.runBytes += rowBytes(row)
	if s.MaxRunBytes > 0 && s.runBytes >= s.MaxRunBytes {
		return s.flushRun()
	}
	return nil
}

// flushRun sorts the current run, writes it to a spill file and
// releases its memory charge — the rows now live on disk.
func (s *ExtSort) flushRun() error {
	sortRows(s.run, s.Keys)
	f, err := os.CreateTemp(s.Dir, "extsort-*.run")
	if err != nil {
		return fmt.Errorf("exec: external sort spill: %w", err)
	}
	r := &spillRun{f: f, rows: int64(len(s.run))}
	s.runs = append(s.runs, r) // registered first so Close always removes it
	w := bufio.NewWriter(f)
	if s.rowBuf == nil {
		s.rowBuf = make([]byte, s.width*8)
	}
	for _, row := range s.run {
		for c, v := range row {
			binary.LittleEndian.PutUint64(s.rowBuf[c*8:], uint64(v))
		}
		if _, err := w.Write(s.rowBuf[:len(row)*8]); err != nil {
			return fmt.Errorf("exec: external sort spill: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("exec: external sort spill: %w", err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		return fmt.Errorf("exec: external sort spill: %w", err)
	}
	r.br = bufio.NewReader(f)
	if s.St != nil {
		s.St.SpillRuns++
		s.St.SpilledBytes += r.rows * int64(s.width) * 8
	}
	s.Life.release(int64(len(s.run)), s.runBytes)
	s.run = s.run[:0]
	s.runBytes = 0
	return nil
}

// readRow reads one row back from a spill file; rows are carved from
// the chunk allocator so they outlive the sort, as handed-out rows
// must.
func (s *ExtSort) readRow(r *spillRun) (Row, bool, error) {
	if r.read >= r.rows {
		return nil, false, nil
	}
	if _, err := io.ReadFull(r.br, s.rowBuf[:s.width*8]); err != nil {
		return nil, false, fmt.Errorf("exec: external sort read: %w", err)
	}
	r.read++
	row := s.alloc.carve(s.width)
	for c := range row {
		row[c] = int64(binary.LittleEndian.Uint64(s.rowBuf[c*8:]))
	}
	return row, true, nil
}

// entryLess orders the merge heap: by sort keys, then by run
// generation for stability.
func (s *ExtSort) entryLess(a, b mergeEntry) bool {
	if lessByKeys(a.row, b.row, s.Keys) {
		return true
	}
	if lessByKeys(b.row, a.row, s.Keys) {
		return false
	}
	return a.src < b.src
}

func (s *ExtSort) push(e mergeEntry) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.entryLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *ExtSort) pop() mergeEntry {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s.heap) && s.entryLess(s.heap[l], s.heap[min]) {
			min = l
		}
		if r < len(s.heap) && s.entryLess(s.heap[r], s.heap[min]) {
			min = r
		}
		if min == i {
			return top
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
}

// Next implements Iterator.
func (s *ExtSort) Next() (Row, bool, error) {
	if len(s.runs) == 0 {
		if s.memPos >= len(s.run) {
			return nil, false, nil
		}
		row := s.run[s.memPos]
		s.memPos++
		return row, true, nil
	}
	if len(s.heap) == 0 {
		return nil, false, nil
	}
	e := s.pop()
	if e.src < len(s.runs) {
		row, ok, err := s.readRow(s.runs[e.src])
		if err != nil {
			return nil, false, err
		}
		if ok {
			s.push(mergeEntry{row: row, src: e.src})
		}
	} else if s.memPos < len(s.run) {
		s.push(mergeEntry{row: s.run[s.memPos], src: e.src})
		s.memPos++
	}
	return e.row, true, nil
}

// Close implements Iterator: spill files are closed and removed on
// every path — success, error or cancellation mid-spill. The input was
// already closed inside Open (Sort's convention).
func (s *ExtSort) Close() error {
	var err error
	for _, r := range s.runs {
		if r.f != nil {
			name := r.f.Name()
			if cerr := r.f.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if rerr := os.Remove(name); rerr != nil && err == nil {
				err = rerr
			}
			r.f = nil
		}
	}
	s.runs, s.run, s.heap = nil, nil, nil
	return err
}
