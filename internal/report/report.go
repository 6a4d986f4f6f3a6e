package report

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a simple text table. The zero value is unusable; create with
// NewTable.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Short rows are padded with empty cells; long
// rows are truncated to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Render returns the aligned text form.
func (t *Table) Render() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
}

// Series is a labelled sequence of points — one line of a figure.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Render returns the series as aligned x/y rows.
func (s *Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "series %s (%s vs %s)\n", s.Name, s.YLabel, s.XLabel)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "  %12.4f  %12.4f\n", p.X, p.Y)
	}
	return b.String()
}

// Fmt helpers for table cells.

// F formats a float with 2 decimals.
func F(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// I formats an int.
func I(v int) string { return strconv.Itoa(v) }

// U formats a uint64.
func U(v uint64) string { return strconv.FormatUint(v, 10) }

// Pct formats a ratio as a percentage with 1 decimal.
func Pct(v float64) string { return strconv.FormatFloat(v*100, 'f', 1, 64) + "%" }
