// Streaming conformance: every fixture in the corpus is replayed over
// a real HTTP server through the streaming client at chunk sizes 1
// (degenerate), 7 (partial chunks) and 4096 (more than most results),
// and each replay must agree with the buffered /execute path row for
// row — same order, same multiset checksum, same count — and with the
// fixture's golden row count. Chunking is pure framing: it must never
// change what crosses the wire.
package conformance

import (
	"net/http/httptest"
	"testing"

	"orderopt/internal/exec"
	"orderopt/internal/planner"
	"orderopt/internal/server"
)

func TestStreamingConformance(t *testing.T) {
	fixtures, err := Load("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixtures found")
	}
	for _, f := range fixtures {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			ds, _, err := Resolve(f)
			if err != nil {
				t.Fatal(err)
			}
			cat, err := Catalog(f)
			if err != nil {
				t.Fatal(err)
			}
			reg := exec.NewRegistry()
			reg.RegisterLazy(ds.Name, ds.Desc, func() (*exec.Dataset, error) { return ds, nil })
			srv := server.New(server.Config{
				Planner:  planner.New(planner.DefaultConfig(cat)),
				Datasets: reg,
			})
			ts := httptest.NewServer(srv)
			defer ts.Close()
			c := server.NewClient(ts.URL)

			buffered, err := c.Execute(server.ExecuteRequest{
				SQL: f.SQL, Dataset: f.Dataset, MaxRows: server.ExecuteRowCap,
			})
			if err != nil {
				t.Fatalf("buffered execute: %v", err)
			}
			if buffered.RowCount != f.Expect.Rows {
				t.Fatalf("buffered path returned %d rows, golden expects %d", buffered.RowCount, f.Expect.Rows)
			}

			var chunkSums []int64
			for _, chunk := range []int{1, 7, 4096} {
				st, err := c.ExecuteStream(server.ExecuteRequest{
					SQL: f.SQL, Dataset: f.Dataset, ChunkRows: chunk,
				})
				if err != nil {
					t.Fatalf("chunk %d: establish: %v", chunk, err)
				}
				rows, err := st.Collect()
				st.Close()
				if err != nil {
					t.Fatalf("chunk %d: collect: %v", chunk, err)
				}
				if int64(len(rows)) != buffered.RowCount {
					t.Fatalf("chunk %d: streamed %d rows, buffered %d", chunk, len(rows), buffered.RowCount)
				}
				// Row order: the buffered response's (possibly capped)
				// prefix must match position for position.
				for i := range buffered.Rows {
					for j := range buffered.Rows[i] {
						if rows[i][j] != buffered.Rows[i][j] {
							t.Fatalf("chunk %d: row %d col %d = %d, buffered %d (order or content diverged)",
								chunk, i, j, rows[i][j], buffered.Rows[i][j])
						}
					}
				}
				// Multiset checksum over the full streamed result: both
				// paths run the same cached plan, so the column order is
				// shared and the sums are comparable. When the buffered
				// response was row-capped, the chunk sizes still have to
				// agree among themselves over the full result.
				sum := checksumWire(rows)
				chunkSums = append(chunkSums, sum)
				if !buffered.Truncated && sum != checksumWire(buffered.Rows) {
					t.Fatalf("chunk %d: checksum %d, buffered %d", chunk, sum, checksumWire(buffered.Rows))
				}
				if tr := st.Trailer(); tr == nil || tr.RowCount != int64(len(rows)) {
					t.Fatalf("chunk %d: trailer %+v after %d rows", chunk, tr, len(rows))
				}
			}
			for _, sum := range chunkSums {
				if sum != chunkSums[0] {
					t.Fatalf("checksums diverge across chunk sizes: %v", chunkSums)
				}
			}
		})
	}
}

// checksumWire applies the corpus's multiset checksum to wire-format
// rows.
func checksumWire(rows [][]int64) int64 {
	conv := make([]exec.Row, len(rows))
	for i, r := range rows {
		conv[i] = r
	}
	return exec.ChecksumRows(conv)
}
