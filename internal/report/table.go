// Package report renders experiment results as aligned text tables and
// character plots. The experiments driver uses it to regenerate the
// paper's tables and figures in terminal-friendly form.
package report

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
// At least one column is required; a panic here would be a programming
// error in the experiment code, so an error is returned instead.
func NewTable(title string, headers ...string) (*Table, error) {
	if len(headers) == 0 {
		return nil, errors.New("report: table requires at least one column")
	}
	return &Table{title: title, headers: headers}, nil
}

// AddRow appends a row; the cell count must match the header count.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.headers) {
		return fmt.Errorf("report: row has %d cells, table has %d columns", len(cells), len(t.headers))
	}
	t.rows = append(t.rows, cells)
	return nil
}

// Render writes the table as aligned monospace text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Fmt formats a float compactly for table cells: fixed notation in a
// readable range, scientific outside it, with NaN and infinities spelled
// out.
func Fmt(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case v == 0:
		return "0"
	case math.Abs(v) >= 0.001 && math.Abs(v) < 100000:
		return trimZeros(fmt.Sprintf("%.5f", v))
	default:
		return fmt.Sprintf("%.3e", v)
	}
}

func trimZeros(s string) string {
	if !strings.Contains(s, ".") {
		return s
	}
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}
