// Package metrics renders experiment output: aligned ASCII tables for the
// paper's tables and epoch-series blocks for its figures, plus small
// numeric helpers shared by the benchmark harness.
package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Cell is a table value with an explicit rendering, overriding AddRow's
// type-based defaults. Build one with Seconds, Bytes, Ratio, Percent or
// Fixed — a bare float64 handed to AddRow is assumed to be a duration,
// which silently mislabels ratios and fractions as seconds.
type Cell struct{ s string }

// String returns the cell's rendered form.
func (c Cell) String() string { return c.s }

// Seconds renders a duration in seconds (FormatSeconds).
func Seconds(v float64) Cell { return Cell{FormatSeconds(v)} }

// Ratio renders a speedup/slowdown multiplier as "1.87x".
func Ratio(v float64) Cell { return Cell{fmt.Sprintf("%.2fx", v)} }

// Fixed renders a float with the given number of decimals.
func Fixed(v float64, decimals int) Cell { return Cell{fmt.Sprintf("%.*f", decimals, v)} }

// AddRow appends a row. Cells carry their own formatting; strings pass
// through; a bare float64 is treated as a duration in seconds (use a Cell
// constructor for anything else); remaining types format with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case Cell:
			row[i] = v.String()
		case string:
			row[i] = v
		case float64:
			row[i] = FormatSeconds(v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowStrings appends a pre-formatted row.
func (t *Table) AddRowStrings(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is one labelled curve of a figure (e.g. test accuracy per epoch).
type Series struct {
	Label  string
	Values []float64
}

// RenderSeries prints curves sampled every step epochs, one row per sampled
// epoch and one column per series — the textual form of a paper figure.
func RenderSeries(w io.Writer, title string, step int, series []Series) {
	if step < 1 {
		step = 1
	}
	maxLen := 0
	for _, s := range series {
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
	}
	headers := append([]string{"epoch"}, make([]string, len(series))...)
	for i, s := range series {
		headers[i+1] = s.Label
	}
	t := NewTable(title, headers...)
	for e := 0; e < maxLen; e += step {
		row := make([]string, len(series)+1)
		row[0] = fmt.Sprintf("%d", e)
		for i, s := range series {
			if e < len(s.Values) {
				row[i+1] = fmt.Sprintf("%.4f", s.Values[e])
			} else {
				row[i+1] = "-"
			}
		}
		t.AddRowStrings(row...)
	}
	t.Render(w)
}

// FormatSeconds renders a duration in seconds with sensible precision.
func FormatSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 0.001:
		return fmt.Sprintf("%.1fus", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// FormatBytes renders a byte count in binary units.
func FormatBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// Speedup returns base/x, guarding against zero.
func Speedup(base, x float64) float64 {
	if x == 0 {
		return 0
	}
	return base / x
}
