// Package report renders simulation results the way the paper presents
// them: aligned text tables (Tables 1-3), ASCII line charts (Plots 1-16
// and the appendix), CSV for external plotting, and the per-PE
// utilization heat map that reproduces ORACLE's color graphics monitor
// ("red: busy, blue: idle") in terminal shades.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// Table is a simple aligned-column text table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	ncols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i := 0; i < ncols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	if len(t.headers) > 0 {
		line(t.headers)
		total := 0
		for _, wd := range widths {
			total += wd
		}
		fmt.Fprintln(w, strings.Repeat("-", total+2*(ncols-1)))
	}
	for _, r := range t.rows {
		line(r)
	}
}

// WriteCSV emits the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.headers) > 0 {
		if err := cw.Write(t.headers); err != nil {
			return err
		}
	}
	for _, r := range t.rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile creates (or truncates) the file at path and writes the
// table to it as CSV.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
