// Package harness runs the repository's reproduction experiments: for every
// table and figure in the paper's evaluation it generates the same rows or
// series, combining the analytic cost models with measurements of the
// implemented structures (cells/nodes accessed — the paper's own response
// time proxy — plus wall-clock in the testing.B benches).
package harness

import (
	"fmt"
	"io"
	"strings"

	"rangecube/internal/cube"
	"rangecube/internal/server"
)

// newBenchServer builds a server over an n×n cube holding cells, the shape
// the chaos soak and the multi-process smokes drive; it is quiet unless opts
// carries a Logf.
func newBenchServer(n int, cells []int64, opts server.Options) *server.Server {
	c := cube.New(
		cube.NewIntDimension("d0", 0, n-1),
		cube.NewIntDimension("d1", 0, n-1),
	)
	copy(c.Data().Data(), cells)
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	srv, err := server.NewWithOptions(c, opts)
	if err != nil {
		panic(fmt.Sprintf("harness: building server: %v", err))
	}
	return srv
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintln(w, t.Note)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}
